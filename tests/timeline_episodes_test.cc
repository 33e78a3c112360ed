/**
 * @file
 * The swap timeline's copy episodes against a recording.
 *
 * tests/golden/timeline_episodes.txt holds the swap events, occupancy
 * samples and summary of every case below, recorded while the timeline
 * still rebuilt each copy from the copy loop's individual bus reads
 * and writes. The copy events that replaced them must reproduce the
 * recording byte for byte in the windows where the two could part:
 *  - timer interrupts that land on every instruction of __swp_memcpy
 *    and of __bb_copy_loop, splitting a copy in two (the resumed half
 *    writes behind a destination register that may lag by a word);
 *  - a power failure inside a function copy-in (pingpong@4096) and
 *    inside a __swp_din data swap-in (rc4_big@1024), which abandons
 *    the episode, and a cycle budget that ends the run inside a
 *    copy-in, which still counts the part copied;
 *  - a checkpointing run whose commits copy SRAM through
 *    __swp_memcpy, under periodic power failures.
 * Each case also checks, from the owner changes in a CSV trace, that
 * its window really occurs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/runner.hh"
#include "support/strings.hh"
#include "trace/swap_timeline.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

constexpr int kHandler = static_cast<int>(sim::CodeOwner::Handler);
constexpr int kMemcpy = static_cast<int>(sim::CodeOwner::Memcpy);

/** One row of the CSV trace sink. */
struct Row {
    std::uint64_t cycle = 0;
    std::string kind;
    std::uint16_t addr = 0;
    std::uint16_t value = 0;
    std::uint32_t extra = 0;
    std::string symbol;
};

std::vector<Row>
parseCsv(const std::string &text)
{
    std::vector<Row> rows;
    std::istringstream in(text);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::vector<std::string> f = support::split(line, ',');
        if (f.size() < 8)
            continue;
        Row r;
        r.cycle = std::stoull(f[0]);
        r.kind = f[2];
        r.addr = static_cast<std::uint16_t>(std::stoul(f[3], nullptr, 16));
        r.value =
            static_cast<std::uint16_t>(std::stoul(f[4], nullptr, 16));
        r.extra = static_cast<std::uint32_t>(std::stoul(f[5]));
        r.symbol = f[7];
        rows.push_back(r);
    }
    return rows;
}

/** A run with its swap timeline and a CSV trace of the swap, power
 *  and interrupt categories. */
struct Traced {
    harness::Metrics metrics;
    std::vector<Row> rows;
};

Traced
runTraced(harness::RunSpec spec)
{
    std::ostringstream csv;
    spec.observe.swap_timeline = true;
    spec.observe.categories =
        trace::kCatSwap | trace::kCatPower | trace::kCatInterrupt;
    spec.observe.ring_capacity = 0;
    spec.observe.format = harness::ObserveSpec::Format::Csv;
    spec.observe.out = &csv;
    Traced t;
    t.metrics = harness::runOne(spec);
    t.rows = parseCsv(csv.str());
    return t;
}

bool
isOwnerChange(const Row &r, int into)
{
    return r.kind == "owner-change" && r.value == into;
}

/** PCs at which the copy routine was re-entered from an interrupt
 *  handler (anything but the runtime that calls it). */
std::set<std::uint16_t>
copyReentries(const std::vector<Row> &rows)
{
    std::set<std::uint16_t> pcs;
    for (const Row &r : rows) {
        if (isOwnerChange(r, kMemcpy) &&
            static_cast<int>(r.extra & 0xFF) != kHandler)
            pcs.insert(r.addr);
    }
    return pcs;
}

/** True when the run's last power failure hit the copy routine. */
bool
failedInCopy(const std::vector<Row> &rows)
{
    bool in_copy = false;
    for (const Row &r : rows) {
        if (r.kind == "power-fail")
            in_copy = r.symbol.rfind("__swp_memcpy", 0) == 0;
    }
    return in_copy;
}

/** The middle cycle of the first copy episode of at least 40 cycles
 *  that @p pick accepts (given the row that entered the runtime). */
std::uint64_t
midCopyCycle(const std::vector<Row> &rows,
             const std::function<bool(const Row &)> &pick)
{
    const Row *runtime_entry = nullptr;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        if (isOwnerChange(r, kHandler) &&
            static_cast<int>(r.extra & 0xFF) != kMemcpy)
            runtime_entry = &r;
        if (!isOwnerChange(r, kMemcpy) || !runtime_entry ||
            !pick(*runtime_entry))
            continue;
        for (std::size_t j = i + 1; j < rows.size(); ++j) {
            if (rows[j].kind != "owner-change")
                continue;
            if (rows[j].cycle - r.cycle >= 40)
                return r.cycle + (rows[j].cycle - r.cycle) / 2;
            break;
        }
    }
    return 0;
}

/** The timeline of @p m in a stable text form. */
std::string
render(const std::string &name, const harness::Metrics &m)
{
    std::ostringstream os;
    os << "== " << name << " done=" << m.done
       << " checksum=" << support::hex16(m.checksum) << "\n";
    for (const trace::SwapEvent &e : m.swap_events) {
        os << "event " << trace::kindName(e.kind) << ' ' << e.cycle
           << ' ' << (e.func.empty() ? "-" : e.func) << ' '
           << support::hex16(e.cache_addr) << ' '
           << support::hex16(e.nvm_addr) << ' ' << e.bytes << ' '
           << e.handler_cycles << "\n";
    }
    for (const trace::OccupancySample &s : m.occupancy) {
        os << "occupancy " << s.cycle << ' ' << s.resident_bytes << ' '
           << s.resident_functions << "\n";
    }
    const trace::SwapSummary &s = m.swap_summary;
    os << "summary misses=" << s.misses << " copy_ins=" << s.copy_ins
       << " evictions=" << s.evictions
       << " bytes_copied=" << s.bytes_copied
       << " data_swap_ins=" << s.data_swap_ins
       << " data_swap_outs=" << s.data_swap_outs
       << " data_bytes_copied=" << s.data_bytes_copied
       << " handler_cycles=" << s.handler_cycles
       << " peak_resident_bytes=" << s.peak_resident_bytes
       << " power_failures=" << s.power_failures
       << " recovery_cycles=" << s.recovery_cycles
       << " ckpt_commits=" << s.ckpt_commits
       << " ckpt_restores=" << s.ckpt_restores << "\n";
    return os.str();
}

/** Two ~26-byte functions called in turn by main, while a tick ISR
 *  fires every 97 cycles: the ticks drift across the copy loop's
 *  iterations and land on every instruction of the routine. The ISR lies
 *  outside every function, so neither runtime caches or rewrites it. */
workloads::Workload
tickingPingPong()
{
    workloads::Workload w;
    w.name = "tickpp";
    w.display = w.name;
    w.source = R"(
        .text
tick_isr:
        ADD #1, &ticks
        RETI
        .func main
        PUSH R10
        MOV #tick_isr, &0xFFF0
        EINT
        MOV #6, R10
ml:     CALL #f_a
        CALL #f_b
        DEC R10
        JNZ ml
        DINT
        MOV &acc, R12
        XOR &ticks, R12
        MOV R12, &bench_result
        POP R10
        RET
        .endfunc
        .func f_a
        ADD #5, &acc
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        RET
        .endfunc
        .func f_b
        XOR #0x77, &acc
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        RET
        .endfunc
        .data
        .align 2
acc: .word 0
ticks: .word 0
bench_result: .word 0
)";
    w.timer_period_cycles = 97;
    return w;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(TimelineEpisodes, MatchTheRecording)
{
    std::string dump;

    // Timer interrupts into the copy loop of either runtime.
    {
        workloads::Workload w = tickingPingPong();
        harness::RunSpec spec;
        spec.workload = &w;
        spec.include_lib = false;
        spec.system = harness::System::SwapRam;
        spec.swap.blacklist = {"main", "__start"};
        spec.swap.cache_base = 0x2000;
        spec.swap.cache_end = 0x2020; // one function at a time
        Traced t = runTraced(spec);
        ASSERT_TRUE(t.metrics.done);
        // TST, JZ, MOV, INCD, DECD, JMP and RET.
        EXPECT_EQ(copyReentries(t.rows).size(), 7u);
        dump += render("swapram timer", t.metrics);
    }
    {
        workloads::Workload w = tickingPingPong();
        harness::RunSpec spec;
        spec.workload = &w;
        spec.include_lib = false;
        spec.system = harness::System::BlockCache;
        spec.block.cache_base = 0x2000;
        spec.block.cache_end = 0x2080; // two slots: frequent flushes
        Traced t = runTraced(spec);
        ASSERT_TRUE(t.metrics.done);
        // TST, JZ, MOV, INCD, DECD and JMP.
        EXPECT_EQ(copyReentries(t.rows).size(), 6u);
        dump += render("block timer", t.metrics);
    }

    // One power failure in the middle of a function copy-in, and a
    // cycle budget that runs out there: the timeline still reports the
    // part copied before the end of the run.
    {
        const workloads::Workload *w = workloads::find("pingpong");
        ASSERT_NE(w, nullptr);
        const harness::RunSpec plain =
            harness::capacitySpec(*w, harness::System::SwapRam, 4096);
        std::uint64_t cycle = midCopyCycle(
            runTraced(plain).rows, [](const Row &) { return true; });
        ASSERT_GT(cycle, 0u);
        harness::RunSpec budget = plain;
        budget.max_cycles = cycle;
        Traced cut = runTraced(budget);
        EXPECT_EQ(cut.metrics.stop, sim::RunResult::Stop::MaxCycles);
        ASSERT_FALSE(cut.metrics.swap_events.empty());
        EXPECT_EQ(cut.metrics.swap_events.back().kind,
                  trace::EventKind::CopyIn);
        dump += render("pingpong@4096 budget ends in copy-in", cut.metrics);

        harness::RunSpec spec = plain;
        spec.intermittent.plan = sim::FaultPlan::once(cycle);
        Traced t = runTraced(spec);
        ASSERT_TRUE(t.metrics.done);
        EXPECT_TRUE(failedInCopy(t.rows));
        dump += render("pingpong@4096 fault in copy-in", t.metrics);
    }

    // One power failure in the middle of a __swp_din swap-in.
    {
        const workloads::Workload *w = workloads::find("rc4_big");
        ASSERT_NE(w, nullptr);
        harness::RunSpec spec =
            harness::capacitySpec(*w, harness::System::SwapRam, 1024);
        std::uint64_t cycle =
            midCopyCycle(runTraced(spec).rows, [](const Row &entry) {
                return entry.symbol.rfind("__swp_din", 0) == 0;
            });
        ASSERT_GT(cycle, 0u);
        spec.intermittent.plan = sim::FaultPlan::once(cycle);
        Traced t = runTraced(spec);
        ASSERT_TRUE(t.metrics.done);
        EXPECT_TRUE(failedInCopy(t.rows));
        EXPECT_GT(t.metrics.swap_summary.data_swap_ins, 0u);
        dump += render("rc4_big@1024 fault in data swap-in", t.metrics);
    }

    // Checkpoint commits copy SRAM through __swp_memcpy.
    {
        workloads::Workload crc = workloads::makeCrc();
        harness::RunSpec spec;
        spec.workload = &crc;
        spec.system = harness::System::SwapRam;
        spec.placement = harness::Placement::Split;
        spec.swap.ckpt.scheme = ckpt::Scheme::Periodic;
        spec.swap.ckpt.period = 1;
        spec.intermittent.plan = sim::FaultPlan::periodic(5'000, 6);
        Traced t = runTraced(spec);
        ASSERT_TRUE(t.metrics.done);
        EXPECT_GT(t.metrics.swap_summary.ckpt_commits, 0u);
        bool commit_copies = false, in_commit = false;
        for (const Row &r : t.rows) {
            if (r.kind == "ckpt-commit")
                in_commit = true;
            else if (isOwnerChange(r, kMemcpy))
                commit_copies |= in_commit;
            else if (r.kind == "owner-change" && r.value != kHandler)
                in_commit = false;
        }
        EXPECT_TRUE(commit_copies);
        dump += render("crc split ckpt periodic faults", t.metrics);
    }

    std::string recorded = readFile(SWAPRAM_TIMELINE_EPISODES_FILE);
    ASSERT_FALSE(recorded.empty())
        << "missing " << SWAPRAM_TIMELINE_EPISODES_FILE;
    if (dump != recorded) {
        std::vector<std::string> want = support::split(recorded, '\n');
        std::vector<std::string> got = support::split(dump, '\n');
        std::size_t i = 0;
        while (i < want.size() && i < got.size() && want[i] == got[i])
            ++i;
        ADD_FAILURE() << "timeline differs from the recording at line "
                      << i + 1 << ":\n  recorded: "
                      << (i < want.size() ? want[i] : "<end>")
                      << "\n  now:      "
                      << (i < got.size() ? got[i] : "<end>");
    }
}

} // namespace
