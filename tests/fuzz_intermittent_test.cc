/**
 * @file
 * Intermittent-execution fuzzing (ISSUE 2 satellite): random programs
 * x random fault schedules x execution systems must converge to the
 * same final state the uninterrupted run produces.
 *
 * For every fuzz seed the version-2 generator (byte ops, occasional
 * deterministic tick ISR) builds a program; each system first runs it
 * uninterrupted (the oracle for that system — cross-system agreement
 * is also asserted against the baseline), then under three fault
 * schedules derived from the oracle's cycle count: periodic reboots,
 * seeded-random gaps, and a single mid-run failure. Convergence means
 * done + identical checksum, .data/.bss snapshot, and console output.
 *
 * The default shard (24 seeds x 3 systems x 3 schedules = 216 faulted
 * runs) keeps CI fast; set SWAPRAM_FUZZ_EXTENDED=1 for the wide
 * sweep (seeds 100..199).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "harness/engine.hh"
#include "sim/fault.hh"
#include "fuzz_programs.hh"

namespace {

using namespace swapram;

struct Convergence {
    int faulted_runs = 0;
    std::uint64_t reboots = 0;
};

/** True when the faulted run reproduced the reference exactly. */
bool
converged(const harness::Metrics &ref, const harness::Metrics &got)
{
    return ref.done && got.done && ref.checksum == got.checksum &&
           ref.data_snapshot == got.data_snapshot &&
           ref.console == got.console;
}

/** Fault schedules derived from the uninterrupted run's length @p c
 *  so every schedule actually interrupts the program. */
std::vector<sim::FaultPlan>
schedulesFor(std::uint64_t c, std::uint32_t seed)
{
    std::vector<sim::FaultPlan> plans;
    plans.push_back(
        sim::FaultPlan::periodic(std::max<std::uint64_t>(c / 4, 50), 6));
    plans.push_back(sim::FaultPlan::random(
        std::max<std::uint64_t>(c / 8, 30),
        std::max<std::uint64_t>(c / 2, 60), seed, 8));
    plans.push_back(
        sim::FaultPlan::once(std::max<std::uint64_t>(c / 2, 25)));
    return plans;
}

/** Run one seed through all systems and schedules; EXPECT on every
 *  comparison and tally the faulted runs for the caller.
 *
 *  Two engine batches per seed: the three uninterrupted reference
 *  runs first (the fault schedules are derived from their cycle
 *  counts, so they are a genuine barrier), then every faulted run of
 *  every system at once. */
void
fuzzOneSeed(std::uint32_t seed, Convergence &tally,
            const harness::Engine &engine)
{
    test::FuzzOptions opts;
    opts.version = 2;
    opts.allow_interrupts = true;
    workloads::Workload w = test::randomProgram(seed, opts);

    const harness::System systems[] = {harness::System::Baseline,
                                       harness::System::SwapRam,
                                       harness::System::BlockCache};

    std::vector<harness::RunSpec> ref_specs;
    for (harness::System system : systems) {
        harness::RunSpec spec;
        spec.workload = &w;
        spec.system = system;
        ref_specs.push_back(spec);
    }
    std::vector<harness::RunOutcome> refs = engine.runAll(ref_specs);

    std::uint16_t oracle_checksum = 0;
    bool have_oracle = false;
    std::vector<harness::RunSpec> faulted_specs;
    std::vector<std::size_t> ref_of; // faulted index -> refs index
    for (std::size_t s = 0; s < ref_specs.size(); ++s) {
        ASSERT_TRUE(refs[s].ok())
            << "seed " << seed << ": " << refs[s].error_text;
        const harness::Metrics &ref = refs[s].metrics;
        if (!ref.fits)
            continue; // cache too small for this program shape
        ASSERT_TRUE(ref.done)
            << "seed " << seed << " system "
            << harness::systemName(ref_specs[s].system);
        if (!have_oracle) {
            oracle_checksum = ref.checksum;
            have_oracle = true;
        } else {
            EXPECT_EQ(ref.checksum, oracle_checksum)
                << "uninterrupted cross-system mismatch, seed "
                << seed;
        }
        for (const sim::FaultPlan &plan :
             schedulesFor(ref.stats.totalCycles(), seed)) {
            // Each faulted run goes in twice: threaded-code dispatch,
            // then the single-step oracle. Both must converge, and
            // because the injector bounds every dispatched block, the
            // failures must land on the same cycles — identical
            // reboot/cycle counts.
            harness::RunSpec faulted = ref_specs[s];
            faulted.intermittent.plan = plan;
            faulted.superblock = true;
            faulted.threaded = true;
            faulted_specs.push_back(faulted);
            ref_of.push_back(s);
            faulted.superblock = false;
            faulted.threaded = false;
            faulted_specs.push_back(faulted);
            ref_of.push_back(s);
        }
    }

    std::vector<harness::RunOutcome> outcomes =
        engine.runAll(faulted_specs);
    // Threaded side of the twins: instructions, and how many of them
    // retired threaded.
    std::uint64_t instructions = 0, threaded_instructions = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const harness::Metrics &ref = refs[ref_of[i]].metrics;
        ASSERT_TRUE(outcomes[i].ok())
            << "seed " << seed << ": " << outcomes[i].error_text;
        const harness::Metrics &got = outcomes[i].metrics;
        EXPECT_TRUE(converged(ref, got))
            << "seed " << seed << " system "
            << harness::systemName(faulted_specs[i].system)
            << " plan kind "
            << static_cast<int>(faulted_specs[i].intermittent.plan.kind)
            << " superblock " << faulted_specs[i].superblock
            << " threaded " << faulted_specs[i].threaded
            << ": done=" << got.done << " checksum " << got.checksum
            << " vs " << ref.checksum << " console '" << got.console
            << "' vs '" << ref.console << "'";
        // Pair layout: [threaded, oracle]. The threaded run leads and
        // the oracle diffs against it.
        if (faulted_specs[i].threaded) {
            ++tally.faulted_runs;
            tally.reboots += got.stats.reboots;
            instructions += got.stats.instructions;
            threaded_instructions += got.stats.threaded_instructions;
            continue;
        }
        const harness::Metrics &on = outcomes[i - 1].metrics;
        std::string ctx = "seed " + std::to_string(seed) +
                          " tier twin divergence, system " +
                          harness::systemName(faulted_specs[i].system);
        EXPECT_EQ(on.stats.simulated(), got.stats.simulated()) << ctx;
        EXPECT_EQ(on.checksum, got.checksum) << ctx;
        EXPECT_EQ(on.data_snapshot, got.data_snapshot) << ctx;
        EXPECT_EQ(on.console, got.console) << ctx;
    }
    // The fast side must really have run: summed over the seed's
    // runs, more than half the instructions retire threaded.
    EXPECT_GT(2 * threaded_instructions, instructions)
        << "seed " << seed << ": only " << threaded_instructions
        << " of " << instructions << " instructions ran threaded";
}

TEST(FuzzIntermittent, RandomProgramsConvergeAcrossFaultSchedules)
{
    Convergence tally;
    harness::Engine engine;
    for (std::uint32_t seed = 1; seed <= 24; ++seed)
        fuzzOneSeed(seed, tally, engine);
    // 24 seeds x 3 systems x 3 schedules (minus any DNF configs).
    EXPECT_GE(tally.faulted_runs, 200);
    // The schedules are sized to actually interrupt the programs.
    EXPECT_GT(tally.reboots, static_cast<std::uint64_t>(
                                 tally.faulted_runs));
}

TEST(FuzzIntermittent, CapacityWorkloadsConvergeAtSmallSram)
{
    // ISSUE 7 shard: the capacity workloads under power failures at
    // SRAM sizes where the SwapRAM runtime is constantly evicting
    // (arith_big/crc_big/pingpong) or tiling data through the pool
    // (rc4_big). Every schedule interrupts miss handling, eviction
    // scans, and __swp_din/__swp_dout copies many times over; the
    // converged final state proves __swp_recover rebuilds a
    // consistent cache/pool from any crash point.
    harness::Engine engine;
    int faulted_runs = 0;
    std::uint64_t reboots = 0;
    for (const workloads::Workload &w : workloads::capacity()) {
        for (std::uint32_t sram : {1024u, 4096u}) {
            harness::RunSpec spec = harness::capacitySpec(
                w, harness::System::SwapRam, sram);
            harness::RunOutcome ref =
                engine.runAll({spec}).front();
            ASSERT_TRUE(ref.ok()) << w.name << "@" << sram << ": "
                                  << ref.error_text;
            ASSERT_TRUE(ref.metrics.done) << w.name << "@" << sram;
            ASSERT_EQ(ref.metrics.checksum, w.expected)
                << w.name << "@" << sram;

            std::vector<harness::RunSpec> faulted_specs;
            for (const sim::FaultPlan &plan : schedulesFor(
                     ref.metrics.stats.totalCycles(), 7)) {
                harness::RunSpec faulted = spec;
                faulted.intermittent.plan = plan;
                faulted_specs.push_back(faulted);
            }
            auto outcomes = engine.runAll(faulted_specs);
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                ASSERT_TRUE(outcomes[i].ok())
                    << w.name << "@" << sram << ": "
                    << outcomes[i].error_text;
                EXPECT_TRUE(converged(ref.metrics,
                                      outcomes[i].metrics))
                    << w.name << "@" << sram << " plan kind "
                    << static_cast<int>(
                           faulted_specs[i].intermittent.plan.kind);
                ++faulted_runs;
                reboots += outcomes[i].metrics.stats.reboots;
            }
        }
    }
    EXPECT_EQ(faulted_runs, 24); // 4 workloads × 2 sizes × 3 plans
    EXPECT_GT(reboots, static_cast<std::uint64_t>(faulted_runs));
}

TEST(FuzzIntermittent, ExtendedSeedShard)
{
    const char *flag = std::getenv("SWAPRAM_FUZZ_EXTENDED");
    if (!flag || flag[0] == '\0' || flag[0] == '0')
        GTEST_SKIP()
            << "set SWAPRAM_FUZZ_EXTENDED=1 for the wide sweep";
    Convergence tally;
    harness::Engine engine;
    for (std::uint32_t seed = 100; seed < 200; ++seed)
        fuzzOneSeed(seed, tally, engine);
    EXPECT_GE(tally.faulted_runs, 800);
}

TEST(FuzzIntermittent, ExtendedHarvestTraceShard)
{
    // ISSUE 8 shard: the same random programs under harvest-trace
    // brown-outs instead of synthetic schedules, with periodic
    // checkpoints on the cache systems. Persistent state must converge
    // (console output is exempt: a checkpoint resume legitimately
    // replays console writes made since the last commit).
    const char *flag = std::getenv("SWAPRAM_FUZZ_EXTENDED");
    if (!flag || flag[0] == '\0' || flag[0] == '0')
        GTEST_SKIP()
            << "set SWAPRAM_FUZZ_EXTENDED=1 for the harvest sweep";

    harness::Engine engine;
    int faulted_runs = 0;
    std::uint64_t reboots = 0;
    for (std::uint32_t seed = 300; seed < 330; ++seed) {
        test::FuzzOptions opts;
        opts.version = 2;
        workloads::Workload w = test::randomProgram(seed, opts);

        for (harness::System system : {harness::System::SwapRam,
                                       harness::System::BlockCache}) {
            harness::RunSpec spec;
            spec.workload = &w;
            spec.system = system;
            spec.placement = harness::Placement::Standard;
            // Starve the cache so the miss handler — and with it the
            // per-miss commit hook — keeps firing for the whole run;
            // a warm cache stops committing and can only livelock.
            spec.sram_size = 1024;
            for (ckpt::Options *o : {&spec.swap.ckpt,
                                     &spec.block.ckpt}) {
                o->scheme = ckpt::Scheme::Periodic;
                o->period = 1;
            }
            harness::RunOutcome ref = engine.runAll({spec}).front();
            ASSERT_TRUE(ref.ok()) << "seed " << seed << ": "
                                  << ref.error_text;
            if (!ref.metrics.fits || !ref.metrics.done)
                continue;

            // Size the capacitor so a boot covers ~1/6 of the run;
            // vary the harvest shape with the seed.
            auto trace = std::make_shared<sim::HarvestTrace>(
                sim::HarvestTrace::fromPoints(
                    {{0.0, 30e-6 + 5e-6 * (seed % 5)},
                     {0.002, 80e-6},
                     {0.004, 20e-6}}));
            sim::CapacitorModel cap;
            cap.brown_out_pj = ref.metrics.energy_pj / 4;
            cap.power_on_pj =
                cap.brown_out_pj + ref.metrics.energy_pj / 6;
            cap.capacity_pj = cap.power_on_pj * 1.25;
            cap.initial_pj = cap.power_on_pj;
            cap.leak_watts = 1e-6;

            harness::RunSpec faulted = spec;
            faulted.intermittent.plan =
                sim::FaultPlan::harvest(trace, cap);
            faulted.intermittent.livelock_boots = 16;
            harness::RunOutcome out =
                engine.runAll({faulted}).front();
            ASSERT_TRUE(out.ok()) << "seed " << seed << ": "
                                  << out.error_text;
            const harness::Metrics &got = out.metrics;
            // Commits only happen at miss-handler entries, so a
            // random program whose working set fits can genuinely be
            // unable to checkpoint past its budget: an honest
            // livelock verdict is a valid outcome. What is NOT valid
            // is a crash, a timeout, or finishing with the wrong
            // state.
            if (!got.done) {
                ASSERT_EQ(got.stop, sim::RunResult::Stop::Livelock)
                    << "seed " << seed << " system "
                    << harness::systemName(system)
                    << " stop " << static_cast<int>(got.stop)
                    << " reboots " << got.stats.reboots;
                continue;
            }
            EXPECT_EQ(got.checksum, ref.metrics.checksum)
                << "seed " << seed;
            EXPECT_EQ(got.data_snapshot, ref.metrics.data_snapshot)
                << "seed " << seed;
            ++faulted_runs;
            reboots += got.stats.reboots;
        }
    }
    EXPECT_GE(faulted_runs, 20);
    EXPECT_GT(reboots, 0u);
}

} // namespace
