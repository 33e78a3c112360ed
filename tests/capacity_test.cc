/**
 * @file
 * SRAM capacity pressure (ISSUE 7): eviction behaviour, the data-side
 * SwapRAM pool, and their interaction with every other subsystem.
 *
 *  - Differential matrix: with eviction enabled but never triggered
 *    (everything fits), every layout-independent result must be
 *    identical to the evict-off run — same checksum, console, .data
 *    snapshot, swap-in count, and zero evictions. The cycle totals may
 *    differ (the evict-capable runtime is larger, which moves code),
 *    which is exactly why the golden suite pins them separately.
 *  - Tier twins: threaded dispatch and the single-step oracle must
 *    agree instruction-for-instruction while thrashing and while
 *    tiling data through the pool.
 *  - Eviction invariants: random fuzz programs and the capacity
 *    workloads run at starvation-sized SRAM; the runner's post-run
 *    verifySwapInvariants() walk (redirect cells point at the FRAM
 *    body or at a live, non-overlapping SRAM copy; __swp_cached
 *    matches the bitmap-free geometry) panics on any violation, so a
 *    clean ok() here is the property under test.
 *  - Runtime counters: the generated __swp_nevict/__swp_nretry and
 *    data-pool counters read back through Metrics and the RunReport.
 *  - Crash windows: single power failures swept densely across an
 *    eviction storm and across data-pool tiling must always converge
 *    (__swp_recover rebuilds a consistent state from any cycle).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "fuzz_programs.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

harness::RunSpec
swapSpecAt(const workloads::Workload &w, std::uint32_t sram_size,
           bool evict = true, bool superblock = true)
{
    harness::RunSpec spec = harness::capacitySpec(
        w, harness::System::SwapRam, sram_size);
    spec.swap.evict = evict;
    spec.superblock = superblock;
    return spec;
}

// ---- Differential: evict-on where everything fits == evict-off ----

TEST(CapacityDifferential, EvictOnIsInertWhenEverythingFits)
{
    // The classic nine all fit at the platform default: eviction must
    // never fire, and everything layout-independent must agree with
    // the evict-off (pre-eviction) runtime.
    std::vector<harness::RunSpec> specs;
    for (const workloads::Workload &w : workloads::all()) {
        specs.push_back(swapSpecAt(w, platform::kSramSize, true));
        specs.push_back(swapSpecAt(w, platform::kSramSize, false));
    }
    harness::Engine engine;
    std::vector<harness::RunOutcome> outcomes = engine.runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 2) {
        const std::string &name = specs[i].workload->name;
        ASSERT_TRUE(outcomes[i].ok()) << name;
        ASSERT_TRUE(outcomes[i + 1].ok()) << name;
        const harness::Metrics &on = outcomes[i].metrics;
        const harness::Metrics &off = outcomes[i + 1].metrics;
        ASSERT_TRUE(on.done && off.done) << name;
        EXPECT_EQ(on.checksum, off.checksum) << name;
        EXPECT_EQ(on.console, off.console) << name;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << name;
        EXPECT_EQ(on.swap_summary.copy_ins, off.swap_summary.copy_ins)
            << name;
        EXPECT_EQ(on.swap_summary.evictions, 0u) << name;
        EXPECT_EQ(off.swap_summary.evictions, 0u) << name;
        EXPECT_EQ(on.rt_evictions, 0u) << name;
        EXPECT_EQ(on.rt_retries, 0u) << name;
    }
}

TEST(CapacityDifferential, CapacityWorkloadsFitAtLargestSize)
{
    // At 8 KiB every capacity workload's working set fits, so the
    // evict-on/evict-off differential extends to them too.
    harness::Engine engine;
    for (const workloads::Workload &w : workloads::capacity()) {
        std::vector<harness::RunSpec> specs{swapSpecAt(w, 8192, true),
                                            swapSpecAt(w, 8192, false)};
        auto outcomes = engine.runAll(specs);
        ASSERT_TRUE(outcomes[0].ok() && outcomes[1].ok()) << w.name;
        const harness::Metrics &on = outcomes[0].metrics;
        const harness::Metrics &off = outcomes[1].metrics;
        ASSERT_TRUE(on.done && off.done) << w.name;
        EXPECT_EQ(on.checksum, w.expected) << w.name;
        EXPECT_EQ(off.checksum, w.expected) << w.name;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << w.name;
        EXPECT_EQ(on.swap_summary.evictions, 0u) << w.name;
    }
}

// ---- Tier twins under capacity pressure ----

TEST(CapacitySuperblock, TwinsAgreeWhileThrashingAndTiling)
{
    // Dispatch engine must be invisible: identical architectural
    // results and identical cycle accounting on the eviction storm
    // (pingpong @4 KiB), the starved scan (arith_big @1 KiB), and the
    // data-pool tiling path (rc4_big).
    struct Case {
        const char *name;
        std::uint32_t sram;
    };
    const Case cases[] = {{"pingpong", 4096},
                          {"arith_big", 1024},
                          {"crc_big", 2048},
                          {"rc4_big", 4096}};
    harness::Engine engine;
    for (const Case &c : cases) {
        const workloads::Workload *w = workloads::find(c.name);
        ASSERT_NE(w, nullptr) << c.name;
        // The fast side drops the swap timeline, which would pin it
        // to the oracle.
        harness::RunSpec fast = swapSpecAt(*w, c.sram, true, true);
        fast.observe = {};
        std::vector<harness::RunSpec> specs{
            fast, swapSpecAt(*w, c.sram, true, false)};
        auto outcomes = engine.runAll(specs);
        ASSERT_TRUE(outcomes[0].ok() && outcomes[1].ok()) << c.name;
        const harness::Metrics &on = outcomes[0].metrics;
        const harness::Metrics &off = outcomes[1].metrics;
        ASSERT_TRUE(on.done && off.done) << c.name;
        EXPECT_EQ(on.checksum, off.checksum) << c.name;
        EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << c.name;
        EXPECT_EQ(on.rt_evictions, off.rt_evictions) << c.name;
        EXPECT_EQ(on.rt_data_in, off.rt_data_in) << c.name;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << c.name;
        EXPECT_GT(2 * on.stats.threaded_instructions,
                  on.stats.instructions)
            << c.name;
    }
}

// ---- Eviction invariants under fuzz ----

TEST(CapacityInvariants, FuzzProgramsSurviveStarvedCaches)
{
    // Random programs at starvation-sized SRAM: the cache is too
    // small for most call graphs, so misses constantly evict, retry,
    // and fall back to FRAM. The post-run invariant walk inside the
    // runner panics (→ error outcome) if any redirect cell points at
    // freed or overlapping SRAM; the baseline run is the checksum
    // oracle.
    harness::Engine engine;
    int verified = 0;
    for (std::uint32_t seed = 1; seed <= 16; ++seed) {
        test::FuzzOptions opts;
        opts.version = 2;
        workloads::Workload w = test::randomProgram(seed, opts);

        harness::RunSpec base;
        base.workload = &w;
        std::vector<harness::RunSpec> specs{base};
        for (std::uint32_t sram : {1024u, 2048u})
            specs.push_back(swapSpecAt(w, sram));
        auto outcomes = engine.runAll(specs);
        ASSERT_TRUE(outcomes[0].ok()) << "seed " << seed;
        const harness::Metrics &oracle = outcomes[0].metrics;
        ASSERT_TRUE(oracle.done) << "seed " << seed;
        for (std::size_t i = 1; i < outcomes.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok())
                << "seed " << seed << " sram "
                << specs[i].sram_size << ": "
                << outcomes[i].error_text;
            const harness::Metrics &m = outcomes[i].metrics;
            if (!m.fits)
                continue; // program bigger than this SRAM ladder step
            ASSERT_TRUE(m.done) << "seed " << seed;
            EXPECT_EQ(m.checksum, oracle.checksum)
                << "seed " << seed << " sram " << specs[i].sram_size;
            ++verified;
        }
    }
    EXPECT_GE(verified, 16); // the ladder must actually run programs
}

TEST(CapacityInvariants, CapacityLadderMatchesGoldenAtEverySize)
{
    // Every cell of the canonical capacity matrix completes with the
    // workload's golden checksum (and therefore passes the post-run
    // invariant verification).
    harness::Engine engine;
    std::vector<harness::MatrixCell> matrix = harness::capacityMatrix();
    std::vector<harness::RunSpec> specs;
    for (const harness::MatrixCell &mc : matrix)
        specs.push_back(harness::capacitySpec(*mc.workload, mc.system,
                                              mc.sram_size));
    auto outcomes = engine.runAll(specs);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        const std::string ctx =
            matrix[i].workload->name + "@" +
            std::to_string(matrix[i].sram_size);
        ASSERT_TRUE(outcomes[i].ok()) << ctx;
        const harness::Metrics &m = outcomes[i].metrics;
        ASSERT_TRUE(m.fits) << ctx << ": " << m.fit_note;
        ASSERT_TRUE(m.done) << ctx;
        EXPECT_EQ(m.checksum, matrix[i].workload->expected) << ctx;
    }
}

/** runOne refuses an SRAM that would reach into FRAM (or wrap the fast
 *  path's mapped-space check onto device space) and a cache region
 *  the runtime cannot use, instead of misreading them mid-run. */
TEST(CapacityInvariants, RunOneRejectsUnusableSramAndCacheBounds)
{
    workloads::Workload crc = workloads::makeCrc();
    harness::RunSpec ok = harness::capacitySpec(
        crc, harness::System::SwapRam, platform::kSramMaxSize);
    EXPECT_TRUE(harness::runOne(ok).done);

    auto rejected = [](const harness::RunSpec &spec) {
        try {
            harness::runOne(spec);
        } catch (const support::FatalError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    harness::RunSpec big = ok;
    big.sram_size = platform::kSramMaxSize + 2;
    EXPECT_NE(rejected(big).find("sram_size"), std::string::npos);
    big.sram_size = 100000;
    EXPECT_NE(rejected(big).find("sram_size"), std::string::npos);

    harness::RunSpec odd;
    odd.workload = &crc;
    odd.system = harness::System::SwapRam;
    odd.swap.cache_base = platform::kSramBase + 1;
    EXPECT_NE(rejected(odd).find("cache region"), std::string::npos);
    harness::RunSpec empty = odd;
    empty.swap.cache_base = 0x2800;
    empty.swap.cache_end = 0x2400;
    EXPECT_NE(rejected(empty).find("cache region"), std::string::npos);
    harness::RunSpec below = odd;
    below.system = harness::System::BlockCache;
    below.block.cache_base = 0x1000;
    EXPECT_NE(rejected(below).find("cache region"), std::string::npos);
}

// ---- Runtime counters and the data pool ----

TEST(CapacityCounters, ThrashAndHitRegimesReadBack)
{
    // pingpong @4 KiB is the designed worst case: each call to one
    // huge function evicts the other.
    auto thrash = harness::runOne(
        swapSpecAt(*workloads::find("pingpong"), 4096));
    ASSERT_TRUE(thrash.done);
    EXPECT_GT(thrash.rt_evictions, 20u);
    EXPECT_GT(thrash.rt_retries, 0u);
    EXPECT_EQ(thrash.rt_evictions, thrash.swap_summary.evictions);

    // @8 KiB both functions fit side by side: no eviction at all.
    auto fits = harness::runOne(
        swapSpecAt(*workloads::find("pingpong"), 8192));
    ASSERT_TRUE(fits.done);
    EXPECT_EQ(fits.rt_evictions, 0u);
    EXPECT_EQ(fits.rt_retries, 0u);
    EXPECT_LT(fits.stats.totalCycles(), thrash.stats.totalCycles() / 4);
}

TEST(CapacityCounters, DataPoolTilesAndWritesBack)
{
    // rc4_big streams a 6 KiB FRAM-resident message through a 512 B
    // SRAM pool: 24 tiles × 2 passes = 48 swap-ins and write-backs.
    const workloads::Workload *w = workloads::find("rc4_big");
    ASSERT_NE(w, nullptr);
    harness::RunSpec spec = swapSpecAt(*w, platform::kSramSize);
    auto m = harness::runOne(spec);
    ASSERT_TRUE(m.done);
    EXPECT_EQ(m.checksum, w->expected);
    EXPECT_EQ(m.rt_data_in, 48u);
    EXPECT_EQ(m.rt_data_out, 48u);
    EXPECT_EQ(m.rt_data_full, 0u);

    // The timeline reconstructs the same traffic from the bus alone.
    EXPECT_EQ(m.swap_summary.data_swap_ins, 48u);
    EXPECT_EQ(m.swap_summary.data_swap_outs, 48u);
    EXPECT_EQ(m.swap_summary.data_bytes_copied, 48u * 2u * 256u);
    int in_events = 0, out_events = 0;
    for (const trace::SwapEvent &e : m.swap_events) {
        if (e.kind == trace::EventKind::DataSwapIn)
            ++in_events;
        else if (e.kind == trace::EventKind::DataSwapOut)
            ++out_events;
    }
    EXPECT_EQ(in_events, 48);
    EXPECT_EQ(out_events, 48);

    // And the report carries both views.
    auto report = harness::RunReport::make(spec, m);
    std::string json = report.json().dump(0);
    EXPECT_NE(json.find("\"runtime_counters\""), std::string::npos);
    EXPECT_NE(json.find("\"data_swap_ins\""), std::string::npos);
    EXPECT_NE(json.find("\"sram_size\""), std::string::npos);
}

TEST(CapacityCounters, PoolFallsBackToFramWhenFull)
{
    // Shrink the pool below one tile: __swp_din cannot place the
    // buffer, returns the FRAM home, and counts the miss — the result
    // must still be correct, just slower.
    const workloads::Workload *w = workloads::find("rc4_big");
    ASSERT_NE(w, nullptr);
    harness::RunSpec spec = swapSpecAt(*w, platform::kSramSize);
    spec.swap.data_pool_bytes = 128; // tile is 256 B: never fits
    auto m = harness::runOne(spec);
    ASSERT_TRUE(m.done);
    EXPECT_EQ(m.checksum, w->expected);
    EXPECT_EQ(m.rt_data_in, 0u);
    EXPECT_EQ(m.rt_data_out, 0u);
    EXPECT_EQ(m.rt_data_full, 48u);
}

// ---- Crash windows: power loss mid-eviction / mid-data-swap ----

/** Sweep a single power failure across @p points cycle positions in
 *  [lo, hi); every position must converge to the clean run. */
void
sweepCrashWindow(harness::RunSpec spec, std::uint64_t lo,
                 std::uint64_t hi, int points, const char *what)
{
    for (int i = 0; i < points; ++i) {
        std::uint64_t at = lo + (hi - lo) * i / points;
        spec.intermittent.plan = sim::FaultPlan::once(at);
        auto check = harness::checkIntermittent(spec);
        EXPECT_TRUE(check.match())
            << what << ": single failure at cycle " << at
            << " diverged (checksum "
            << check.faulted.checksum << " vs "
            << check.reference.checksum << ")";
    }
}

TEST(CapacityCrashWindows, PowerLossMidEvictionConverges)
{
    // pingpong @4 KiB evicts ~47 times spread across the whole run:
    // 24 evenly spaced single-failure points land inside miss
    // handling, mid-__swp_memcpy, and mid-scan with high probability.
    const workloads::Workload *w = workloads::find("pingpong");
    ASSERT_NE(w, nullptr);
    harness::RunSpec spec = swapSpecAt(*w, 4096);
    auto clean = harness::runOne(spec);
    ASSERT_TRUE(clean.done);
    ASSERT_GT(clean.rt_evictions, 20u);
    sweepCrashWindow(spec, 200, clean.stats.totalCycles(), 24,
                     "pingpong@4096");
}

TEST(CapacityCrashWindows, PowerLossMidDataSwapConverges)
{
    // rc4_big tiles the pool for the entire run; failures land inside
    // __swp_din/__swp_dout copies and between tiles. __swp_recover
    // clears the pool bitmap, so the restarted pass re-swaps cleanly.
    const workloads::Workload *w = workloads::find("rc4_big");
    ASSERT_NE(w, nullptr);
    harness::RunSpec spec = swapSpecAt(*w, platform::kSramSize);
    auto clean = harness::runOne(spec);
    ASSERT_TRUE(clean.done);
    ASSERT_EQ(clean.rt_data_in, 48u);
    sweepCrashWindow(spec, 500, clean.stats.totalCycles(), 16,
                     "rc4_big@4096");
}

} // namespace
