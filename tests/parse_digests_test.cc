/**
 * @file
 * The parser's output against a recording.
 *
 * tests/golden/parse_digests.txt was recorded from the previous,
 * istringstream-based parser. For every source below it holds the
 * statement count and a 64-bit hash of each statement's line and
 * Statement::text(), folded over the program in order:
 *  - every workload source and the helper library;
 *  - the startup stubs runOne emits;
 *  - the runtime text of every cache cell of the sweep and capacity
 *    matrices (34 texts: cache bounds are baked into each), plus
 *    checkpointing runtimes of both caches and a SwapRAM data-pool
 *    runtime;
 *  - a handful of odd but valid lines (case, suffixes, label runs).
 * It also holds the exact FatalError text of malformed lines. The
 * parser must reproduce the file byte for byte; it is never
 * regenerated from the current code.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "blockcache/pass.hh"
#include "blockcache/runtime_gen.hh"
#include "ckpt/gen.hh"
#include "harness/engine.hh"
#include "harness/placement.hh"
#include "harness/runner.hh"
#include "masm/assembler.hh"
#include "recording.hh"
#include "masm/parser.hh"
#include "support/logging.hh"
#include "swapram/pass.hh"
#include "swapram/reloc.hh"
#include "swapram/runtime_gen.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using test::fnv1a;
using test::expectSameLines;
using test::readFile;
namespace plat = swapram::platform;

/** One named source text. */
struct Source {
    std::string name;
    std::string text;
};

/** The runtime text cache::build parses for @p app. */
std::string
swapRuntime(const masm::Program &app, const masm::LayoutSpec &layout,
            const cache::Options &options)
{
    cache::FuncIds funcs = cache::collectFunctions(app, options);
    masm::LayoutSpec inter_layout = layout;
    for (const char *sym : {"__swp_active", "__swp_curid",
                            "__swp_redirect", "__swp_rval",
                            "__swp_miss", "__swp_dyncall",
                            "__swp_recover", "__swp_din",
                            "__swp_dout"})
        inter_layout.predefined.emplace(sym, 0);
    for (const std::string &name : funcs.names)
        inter_layout.predefined.emplace("__swp_id_" + name, 0);
    masm::AssembleResult inter = masm::assemble(
        cache::instrumentCalls(app, funcs, options), inter_layout);
    cache::RelocResult relocs = cache::relocateBranches(inter, funcs);
    ckpt::SectionSizes sections;
    if (options.ckpt.enabled())
        sections = ckpt::measureSections(inter.image, options.ckpt);
    return cache::generateRuntimeAsm(funcs, relocs, options, sections);
}

/** The runtime text bb::build parses for @p app. */
std::string
blockRuntime(const masm::Program &app, const masm::LayoutSpec &layout,
             const bb::Options &options)
{
    bb::TransformResult transformed = bb::transform(app, options);
    ckpt::SectionSizes sections;
    if (options.ckpt.enabled()) {
        masm::LayoutSpec probe_layout = layout;
        for (std::size_t k = 0; k < transformed.stub_target.size(); ++k)
            probe_layout.predefined.emplace("__bb_e" + std::to_string(k),
                                            0);
        probe_layout.predefined.emplace("__bb_ret", 0);
        probe_layout.predefined.emplace("__bb_recover", 0);
        masm::AssembleResult probe =
            masm::assemble(transformed.program, probe_layout);
        sections = ckpt::measureSections(probe.image, options.ckpt);
    }
    return bb::generateRuntimeAsm(transformed, options, sections);
}

/** The runtime text runOne's build of @p spec parses (Unified
 *  placement, as in both matrices). */
std::string
runtimeOf(const harness::RunSpec &spec)
{
    harness::PlacementPlan plan =
        harness::makePlacement(harness::Placement::Unified);
    const bool swap = spec.system == harness::System::SwapRam;
    const std::string stub = harness::startupSource(
        plan.stack_top, spec.main_repeats,
        swap ? "__swp_recover" : "__bb_recover");
    masm::Program app =
        harness::spliceSource(stub, *spec.workload, spec.include_lib);
    const std::uint32_t sram_end = plat::kSramBase + spec.sram_size;
    if (swap) {
        cache::Options options = spec.swap;
        if (spec.sram_size != plat::kSramSize &&
            options.cache_end == plat::kSramEnd)
            options.cache_end = static_cast<std::uint16_t>(sram_end);
        if (!options.data_pool_bytes)
            options.data_pool_bytes = spec.workload->data_pool_bytes;
        return swapRuntime(app, plan.layout, options);
    }
    bb::Options options = spec.block;
    if (spec.sram_size != plat::kSramSize &&
        options.cache_end == plat::kSramEnd)
        options.cache_end = static_cast<std::uint16_t>(sram_end);
    return blockRuntime(app, plan.layout, options);
}

/** Odd but valid lines: mixed case, suffixes on pseudo-ops that drop
 *  them, label runs, aliases, expressions, escapes. */
const char *const kEdgeSource =
    "a: b:  c:\n"
    "        nop.b\n"
    "        ReT.w\n"
    "        br.b #a\n"
    "        MoV.W R4, r5\n"
    "        pop.b r6\n"
    "        clr.b &0x200\n"
    "        rla.b 2(r7)\n"
    "        rlc @r8+\n"
    "        jz a ; comment\n"
    "        jnz b\n"
    "        jlo c\n"
    "        jhs $x_1.y\n"
    "        push.b -(2+3)*4(sp)\n"
    "        mov #(1<<4)|(0x30>>2)&0b1111, R04\n"
    "        call #-'\\n'+'a'\n"
    "        .word 1, -2, x+3, (4/2)\n"
    "        .byte 'q', 0X1F\n"
    "        .equ k, +5 - -6\n"
    "        .SET k2, k\n"
    "        .Global g\n"
    "        .asciz \"t\\tq\\\"\\\\\\0\"\n"
    "        .ascii \"\"\n"
    "\r\n"
    "\t;\n"
    "last: reti";

/** Every source the recording covers, in file order. */
std::vector<Source>
recordedSources()
{
    std::vector<Source> out;
    for (const workloads::Workload &w : workloads::all())
        out.push_back({"workload:" + w.name, w.source});
    for (const workloads::Workload &w : workloads::capacity())
        out.push_back({"workload:" + w.name, w.source});
    out.push_back({"lib", workloads::libSource()});

    const std::uint16_t top =
        harness::makePlacement(harness::Placement::Unified).stack_top;
    out.push_back({"stub:x1", harness::startupSource(top)});
    out.push_back({"stub:x10:swp",
                   harness::startupSource(top, 10, "__swp_recover")});
    out.push_back({"stub:x1:bb",
                   harness::startupSource(0x2400, 1, "__bb_recover")});

    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system :
             {harness::System::SwapRam, harness::System::BlockCache}) {
            harness::RunSpec spec = harness::sweepSpec(
                w, system, harness::Placement::Unified, 24'000'000);
            out.push_back({"runtime:" + w.name + ":" +
                               harness::systemName(system),
                           runtimeOf(spec)});
        }
    }
    for (const harness::MatrixCell &cell : harness::capacityMatrix()) {
        if (cell.system == harness::System::Baseline)
            continue;
        harness::RunSpec spec = harness::capacitySpec(
            *cell.workload, cell.system, cell.sram_size, 24'000'000);
        out.push_back({"runtime:" + cell.workload->name + ":" +
                           harness::systemName(cell.system) + "@" +
                           std::to_string(cell.sram_size),
                       runtimeOf(spec)});
    }

    // Checkpointing and data-pool runtimes of both cache systems.
    const workloads::Workload &crc = *workloads::find("crc");
    {
        harness::RunSpec spec = harness::sweepSpec(
            crc, harness::System::SwapRam, harness::Placement::Unified,
            24'000'000);
        spec.swap.ckpt.scheme = ckpt::Scheme::Periodic;
        spec.swap.ckpt.period = 3;
        out.push_back({"runtime:crc:swapram:ckpt", runtimeOf(spec)});
        spec.swap.ckpt = {};
        spec.swap.data_pool_bytes = 256;
        out.push_back({"runtime:crc:swapram:pool", runtimeOf(spec)});
    }
    {
        harness::RunSpec spec = harness::sweepSpec(
            crc, harness::System::BlockCache, harness::Placement::Unified,
            24'000'000);
        spec.block.ckpt.scheme = ckpt::Scheme::OnLowEnergy;
        out.push_back({"runtime:crc:block:ckpt", runtimeOf(spec)});
    }

    out.push_back({"edge", kEdgeSource});
    return out;
}

/** Malformed sources whose diagnostic the recording pins. */
const std::vector<std::string> &
malformedSources()
{
    static const std::vector<std::string> sources = {
        "        mov #0xZZ, r4",
        "        mov #0x, r4",
        "        mov #0b2, r4",
        "        mov #12abc, r4",
        "        mov #'a, r4",
        "        mov #'ab', r4",
        "        mov #'\\q', r4",
        "        mov #'\\",
        "        .ascii \"abc",
        "        .ascii \"a\\qb\"",
        "        .ascii \"abc\\",
        "        .ascii 3",
        "        mov r4, ?",
        "        mov r4, r5 r6",
        "        .word 1 2",
        "        frob r4",
        "x: y: frob.b #1, @r4+",
        "        mov.b.b r4, r5",
        "        mov.x r4, r5",
        "        mov. r4, r5",
        "        swpb.b r4",
        "        jmp.b x",
        "        mov r4",
        "        mov r4, r5, r6",
        "        push r4, r5",
        "        call",
        "        inc r4, r5",
        "        inc",
        "        ret r4",
        "        rla",
        "        jmp",
        "        jmp a, b",
        "        jmp @r4",
        "        jmp #x",
        "        reti r4",
        "        .frob 1",
        "        .FROB 1",
        ".L1:    nop",
        "        mov @foo, r4",
        "        mov @1, r4",
        "        mov 2(foo), r4",
        "        mov 2(3), r4",
        "        mov 2(r4, r5",
        "        mov #(1+2, r4",
        "        mov #, r4",
        "        mov #1 <<, r4",
        "        mov #1+*2, r4",
        "        42",
        "        #4",
        "        .equ x 3",
        "        .equ 3, 3",
        "        .func 3",
        "        .global",
        "        .word",
        "        .text 1",
        "        nop\n\n\tmov r4\n        nop",
        "a:\n        .word 1\n        .endfunc x\n",
    };
    return sources;
}

/** One recording line for the parse of @p text. */
std::string
digestLine(const std::string &name, const std::string &text)
{
    masm::Program program = masm::parse(text);
    std::uint64_t hash = test::kFnvBasis;
    for (const masm::Statement &s : program.stmts)
        hash = fnv1a(hash, std::to_string(s.line) + '\t' + s.text() + '\n');
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return name + ' ' + std::to_string(program.stmts.size()) + ' ' + hex +
           '\n';
}

/** One recording line for the diagnostic of malformed @p text. */
std::string
errorLine(const std::string &text)
{
    std::string shown;
    for (char c : text)
        shown += c == '\n' ? std::string("\\n") : std::string(1, c);
    try {
        masm::parse(text);
    } catch (const support::FatalError &e) {
        return "error " + shown + " => " + e.what() + '\n';
    }
    return "error " + shown + " => (parsed)\n";
}

TEST(ParseDigests, MatchTheRecording)
{
    const std::vector<Source> sources = recordedSources();
    ASSERT_EQ(sources.size(), 13u + 1u + 3u + 34u + 3u + 1u);
    std::string dump;
    for (const Source &s : sources)
        dump += digestLine(s.name, s.text);
    for (const std::string &text : malformedSources())
        dump += errorLine(text);

    const std::string recorded = readFile(SWAPRAM_PARSE_DIGESTS_FILE);
    ASSERT_FALSE(recorded.empty())
        << "missing recording " << SWAPRAM_PARSE_DIGESTS_FILE;
    expectSameLines(dump, recorded, "the parse");
}

// Eight threads parse every source at once; each must reproduce the
// recorded digests (the CI thread-sanitizer leg runs this).
TEST(ParseDigests, ConcurrentParsesAgree)
{
    const std::vector<Source> sources = recordedSources();
    const std::string recorded = readFile(SWAPRAM_PARSE_DIGESTS_FILE);
    const std::string want = recorded.substr(0, recorded.find("error "));
    ASSERT_FALSE(want.empty());

    constexpr int kThreads = 8;
    std::vector<std::string> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&sources, &got, t]() {
            for (const Source &s : sources)
                got[t] += digestLine(s.name, s.text);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], want) << "thread " << t;
}

} // namespace
