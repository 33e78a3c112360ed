/**
 * @file
 * Built images against a recording.
 *
 * tests/golden/image_digests.txt holds, for every cell below, the
 * image harness::buildOne builds: a 64-bit hash of every chunk's base
 * and bytes, the entry point, the section bounds, the symbols sorted
 * by name and the functions in order, with the counts alongside. The
 * cells are
 *  - all 47 cells of `swapram_tool sweep --capacity`;
 *  - checkpointing under both caches (Standard placement: the stack
 *    must be in SRAM), a SwapRAM data pool, and the Split and
 *    Standard placements;
 *  - a program with more than a hundred out-of-range jumps of every
 *    kind (JMP, each invertible conditional, JN), built plain and
 *    under SwapRAM, so jump relaxation is pinned.
 * The cells build on the engine's workers at hardware concurrency, so
 * the parser and assembler run concurrently. The assembler must
 * reproduce the file byte for byte; it is never regenerated from the
 * current code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/engine.hh"
#include "harness/runner.hh"
#include "masm/assembler.hh"
#include "recording.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using test::fnv1a;
using test::expectSameLines;
using test::readFile;
using harness::Placement;
using harness::RunSpec;
using harness::System;

/** One recording line for the image @p r. */
std::string
digestLine(const std::string &name, const masm::AssembleResult &r)
{
    std::uint64_t hash = test::kFnvBasis;
    std::size_t bytes = 0;
    for (const masm::Chunk &c : r.image.chunks) {
        hash = fnv1a(hash, "chunk " + std::to_string(c.base) + '\n');
        hash = fnv1a(hash, std::string(c.bytes.begin(), c.bytes.end()));
        bytes += c.bytes.size();
    }
    hash = fnv1a(hash, "entry " + std::to_string(r.image.entry) + '\n');
    for (const masm::Range &range :
         {r.image.text, r.image.cnst, r.image.data, r.image.bss}) {
        hash = fnv1a(hash, "section " + std::to_string(range.base) + ' ' +
                               std::to_string(range.size) + '\n');
    }
    std::vector<std::pair<std::string, std::uint16_t>> symbols;
    for (const auto &[sym, value] : r.symbols)
        symbols.emplace_back(std::string(sym), value);
    std::sort(symbols.begin(), symbols.end());
    for (const auto &[sym, value] : symbols)
        hash = fnv1a(hash, sym + '=' + std::to_string(value) + '\n');
    for (const masm::FunctionInfo &f : r.functions) {
        hash = fnv1a(hash, "func " + f.name + ' ' + std::to_string(f.addr) +
                               ' ' + std::to_string(f.size) + '\n');
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return name + " chunks=" + std::to_string(r.image.chunks.size()) +
           " bytes=" + std::to_string(bytes) +
           " symbols=" + std::to_string(symbols.size()) +
           " functions=" + std::to_string(r.functions.size()) + ' ' + hex +
           '\n';
}

/** A program whose jumps mostly cannot reach their targets: a hundred
 *  of every kind jump forward across 1100 bytes, a hundred of every
 *  kind jump back over all of it, and one of every kind starts in
 *  range of a label that relaxing the others pushes out of reach. */
workloads::Workload
relaxationWorkload()
{
    const char *const kinds[] = {"JMP", "JNE", "JEQ", "JNC",
                                 "JC",  "JGE", "JL",  "JN"};
    std::string src = "        .text\n"
                      "        .func main\n"
                      "        MOV #0, R12\n";
    for (const char *k : kinds)
        src += std::string("        ") + k + " rx_mid\n";
    for (int i = 0; i < 100; ++i) {
        if (i == 60)
            src += "rx_mid:\n";
        for (const char *k : kinds)
            src += std::string("        ") + k + " rx_far\n";
    }
    src += "        .space 1100\n"
           "rx_far:\n";
    for (int i = 0; i < 100; ++i) {
        for (const char *k : kinds)
            src += std::string("        ") + k + " main\n";
    }
    src += "        RET\n"
           "        .endfunc\n";
    workloads::Workload w;
    w.name = "relax";
    w.source = std::move(src);
    return w;
}

struct Cell {
    std::string name;
    RunSpec spec;
};

/** Every recorded cell, in file order; @p relax must outlive them. */
std::vector<Cell>
recordedCells(const workloads::Workload &relax)
{
    std::vector<Cell> cells;
    for (const workloads::Workload &w : workloads::all()) {
        for (System system :
             {System::Baseline, System::SwapRam, System::BlockCache}) {
            cells.push_back({"sweep:" + w.name + ":" +
                                 harness::systemName(system),
                             harness::sweepSpec(w, system)});
        }
    }
    for (const harness::MatrixCell &mc : harness::capacityMatrix()) {
        cells.push_back({"capacity:" + mc.workload->name + ":" +
                             harness::systemName(mc.system) + "@" +
                             std::to_string(mc.sram_size),
                         harness::capacitySpec(*mc.workload, mc.system,
                                               mc.sram_size)});
    }

    const workloads::Workload &crc = *workloads::find("crc");
    {
        RunSpec spec =
            harness::sweepSpec(crc, System::SwapRam, Placement::Standard);
        spec.swap.ckpt.scheme = ckpt::Scheme::Periodic;
        spec.swap.ckpt.period = 3;
        cells.push_back({"crc:swapram:ckpt", spec});
        spec.placement = Placement::Unified;
        spec.swap.ckpt = {};
        spec.swap.data_pool_bytes = 256;
        cells.push_back({"crc:swapram:pool", spec});
    }
    {
        RunSpec spec = harness::sweepSpec(crc, System::BlockCache,
                                          Placement::Standard);
        spec.block.ckpt.scheme = ckpt::Scheme::OnLowEnergy;
        cells.push_back({"crc:block:ckpt", spec});
    }
    cells.push_back(
        {"dijkstra:swapram:split",
         harness::sweepSpec(*workloads::find("dijkstra"), System::SwapRam,
                            Placement::Split)});
    cells.push_back(
        {"rc4:block:standard",
         harness::sweepSpec(*workloads::find("rc4"), System::BlockCache,
                            Placement::Standard)});
    cells.push_back({"relax:baseline",
                     harness::sweepSpec(relax, System::Baseline)});
    cells.push_back({"relax:swapram",
                     harness::sweepSpec(relax, System::SwapRam)});
    return cells;
}

TEST(ImageDigests, MatchTheRecording)
{
    const workloads::Workload relax = relaxationWorkload();
    const std::vector<Cell> cells = recordedCells(relax);
    ASSERT_EQ(cells.size(), 47u + 5u + 2u);

    std::vector<std::string> lines(cells.size());
    harness::Engine engine;
    engine.forEach(cells.size(), [&](std::size_t i) {
        try {
            lines[i] = digestLine(cells[i].name,
                                  harness::buildOne(cells[i].spec));
        } catch (const std::exception &e) {
            lines[i] = cells[i].name + " error " + e.what() + '\n';
        }
    });
    std::string dump;
    for (const std::string &line : lines)
        dump += line;

    const std::string recorded = readFile(SWAPRAM_IMAGE_DIGESTS_FILE);
    ASSERT_FALSE(recorded.empty())
        << "missing recording " << SWAPRAM_IMAGE_DIGESTS_FILE;
    expectSameLines(dump, recorded, "the image");
}

} // namespace
