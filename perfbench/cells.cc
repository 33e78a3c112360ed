#include "cells.hh"

#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "harness/engine.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/platform.hh"

namespace perfbench {

namespace sw = swapram;
using sw::harness::RunSpec;
using sw::harness::System;
using sw::workloads::Workload;

namespace {

/** The nine paper benchmarks, in Table-1 order (workloads::all()). */
const std::vector<Workload (*)()> kPaper = {
    sw::workloads::makeStringsearch, sw::workloads::makeDijkstra,
    sw::workloads::makeCrc,          sw::workloads::makeRc4,
    sw::workloads::makeFft,          sw::workloads::makeAes,
    sw::workloads::makeLzfx,         sw::workloads::makeBitcount,
    sw::workloads::makeRsa,
};

/** The capacity-pressure set, in workloads::capacity() order. */
const std::vector<Workload (*)()> kCapacity = {
    sw::workloads::makeArithBig,
    sw::workloads::makeCrcBig,
    sw::workloads::makeRc4Big,
    sw::workloads::makePingpong,
};

constexpr std::uint32_t kDefaultSram = sw::platform::kSramSize;

using GoldenKey = std::tuple<std::string, std::string, std::uint32_t>;

std::map<GoldenKey, Golden>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sw::support::fatal("cannot open golden file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    sw::support::json::Value doc = sw::support::json::parse(text.str());
    std::map<GoldenKey, Golden> rows;
    for (const sw::support::json::Value &e :
         doc["expectations"].asArray()) {
        Golden g;
        g.checksum = static_cast<std::uint16_t>(e["checksum"].asInt());
        g.total_cycles =
            static_cast<std::uint64_t>(e["total_cycles"].asInt());
        g.stall_cycles =
            static_cast<std::uint64_t>(e["stall_cycles"].asInt());
        g.swap_ins = static_cast<std::uint64_t>(e["swap_ins"].asInt());
        g.evictions = static_cast<std::uint64_t>(e["evictions"].asInt());
        rows[{e["workload"].asString(), e["system"].asString(),
              static_cast<std::uint32_t>(e["sram_size"].asInt())}] = g;
    }
    return rows;
}

const Workload &
byName(const Inputs &in, const std::string &name)
{
    for (const Workload &w : in.workloads) {
        if (w.name == name)
            return w;
    }
    sw::support::fatal("perfbench: no workload '", name, "'");
}

void
addCell(Inputs &in, const RunSpec &spec)
{
    Cell cell;
    cell.name = spec.workload->name + "/" +
                sw::harness::systemName(spec.system) + "@" +
                std::to_string(spec.sram_size);
    cell.spec = spec;
    in.cells.push_back(std::move(cell));
}

/** A repeated run (paper §4: main() ten times), nothing observed. */
RunSpec
repeatedSpec(const Workload &w, System system, std::uint32_t sram_size)
{
    RunSpec spec;
    spec.workload = &w;
    spec.system = system;
    spec.sram_size = sram_size;
    spec.main_repeats = 10;
    return spec;
}

constexpr System kSystems[] = {System::Baseline, System::SwapRam,
                               System::BlockCache};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep", "steady",
                                                   "thrash", "observed"};
    return names;
}

Inputs
prepare(const std::string &workload, const std::string &golden_path)
{
    Inputs in;
    const bool capacity = workload == "sweep" || workload == "thrash";
    const bool paper = workload != "thrash";
    if (paper) {
        for (auto make : kPaper)
            in.workloads.push_back(make());
    }
    if (capacity) {
        for (auto make : kCapacity)
            in.workloads.push_back(make());
    }

    if (workload == "sweep") {
        // `swapram_tool sweep --capacity`: the classic matrix, then the
        // capacity matrix, each cell with the CLI's timeline attached.
        for (std::size_t i = 0; i < kPaper.size(); ++i) {
            for (System system : kSystems)
                addCell(in, sw::harness::sweepSpec(in.workloads[i],
                                                   system));
        }
        for (const sw::harness::MatrixCell &mc :
             sw::harness::capacityMatrix()) {
            addCell(in, sw::harness::capacitySpec(
                            byName(in, mc.workload->name), mc.system,
                            mc.sram_size));
        }
        std::map<GoldenKey, Golden> golden = loadGolden(golden_path);
        for (Cell &cell : in.cells) {
            auto it = golden.find(
                {cell.spec.workload->name,
                 sw::harness::systemName(cell.spec.system),
                 cell.spec.sram_size});
            if (it == golden.end())
                sw::support::fatal("perfbench: no golden row for ",
                                   cell.name);
            cell.has_golden = true;
            cell.golden = it->second;
        }
    } else if (workload == "steady" || workload == "observed") {
        for (const Workload &w : in.workloads) {
            for (System system : kSystems) {
                RunSpec spec = repeatedSpec(w, system, kDefaultSram);
                if (workload == "observed") {
                    spec.observe.profile = true;
                    spec.observe.metrics = true;
                }
                addCell(in, spec);
            }
        }
    } else if (workload == "thrash") {
        // Capacity cells that keep evicting code (arith_big, crc_big,
        // pingpong) or swapping data (rc4_big), the block cache under
        // the same pressure, and each program's uncached baseline.
        const std::tuple<const char *, System, std::uint32_t> picks[] = {
            {"arith_big", System::SwapRam, 1024},
            {"arith_big", System::SwapRam, 4096},
            {"crc_big", System::SwapRam, 1024},
            {"crc_big", System::SwapRam, 4096},
            {"pingpong", System::SwapRam, 4096},
            {"rc4_big", System::SwapRam, 1024},
            {"arith_big", System::BlockCache, 1024},
            {"crc_big", System::BlockCache, 1024},
            {"arith_big", System::Baseline, kDefaultSram},
            {"crc_big", System::Baseline, kDefaultSram},
            {"rc4_big", System::Baseline, kDefaultSram},
            {"pingpong", System::Baseline, kDefaultSram},
        };
        for (const auto &[name, system, sram] : picks)
            addCell(in, repeatedSpec(byName(in, name), system, sram));
    } else {
        sw::support::fatal("perfbench: unknown workload '", workload,
                           "' (want sweep|steady|thrash|observed)");
    }
    return in;
}

std::vector<std::uint64_t>
simulatedFields(const sw::sim::Stats &s)
{
    std::vector<std::uint64_t> f = {
        s.instructions,      s.base_cycles,
        s.stall_cycles,      s.sram.fetch,
        s.sram.read,         s.sram.write,
        s.fram.fetch,        s.fram.read,
        s.fram.write,        s.mmio.fetch,
        s.mmio.read,         s.mmio.write,
        s.fram_cache_hits,   s.fram_cache_misses,
        s.code_space_accesses, s.data_space_accesses,
        s.interrupts,        s.reboots,
        s.recovery_cycles,
    };
    f.insert(f.end(), s.instr_by_owner.begin(), s.instr_by_owner.end());
    return f;
}

std::vector<std::uint64_t>
hostFields(const sw::sim::Stats &s)
{
    return {
        s.predecode_hits,           s.predecode_misses,
        s.predecode_invalidations,  s.superblock_blocks_built,
        s.superblock_dispatches,    s.superblock_instructions,
        s.superblock_bail_operand,  s.superblock_bail_smc,
        s.superblock_bail_boundary, s.superblock_invalidations,
        s.threaded_blocks_lowered,  s.threaded_dispatches,
        s.threaded_instructions,    s.threaded_bail_operand,
        s.threaded_bail_smc,        s.threaded_bail_boundary,
    };
}

Digest
digestOf(const sw::harness::Metrics &m)
{
    Digest d;
    d.checksum = m.checksum;
    d.snapshot = m.data_snapshot;
    d.simulated = simulatedFields(m.stats);
    d.swap_ins = m.swap_summary.copy_ins;
    d.evictions = m.swap_summary.evictions;
    return d;
}

std::string
checkRun(const sw::harness::Metrics &m, const Cell &cell)
{
    if (!m.fits)
        return "did not fit: " + m.fit_note;
    if (!m.done)
        return "did not finish";
    const Golden &g = cell.golden;
    if (cell.has_golden &&
        (m.checksum != g.checksum ||
         m.stats.totalCycles() != g.total_cycles ||
         m.stats.stall_cycles != g.stall_cycles ||
         m.swap_summary.copy_ins != g.swap_ins ||
         m.swap_summary.evictions != g.evictions))
        return "differs from its golden row";
    return "";
}

RunSpec
oracleTwin(const RunSpec &spec)
{
    RunSpec twin = spec;
    twin.predecode = false;
    twin.superblock = false;
    twin.threaded = false;
    twin.observe = sw::harness::ObserveSpec{};
    return twin;
}

} // namespace perfbench
