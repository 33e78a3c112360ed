/**
 * @file
 * Property/fuzz tests: generate random programs — a set of functions
 * with random ALU bodies mutating global state, wired into a random
 * acyclic call graph with random loops — and require that SwapRAM and
 * the block cache produce *exactly* the final memory state and
 * checksum of baseline execution, across randomized cache geometries.
 *
 * The baseline is the oracle (no hand-written golden needed), so this
 * exercises the caching runtimes against code shapes the nine curated
 * benchmarks never produce: deep call chains, recursion, hot/cold
 * mixes, many relocatable branches.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "fuzz_programs.hh"
#include "harness/engine.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

class FuzzSystems : public ::testing::TestWithParam<std::uint32_t>
{
};

/** Execution-tier twin comparison: every simulated observable must be
 *  bit-identical across the host-side dispatch tiers. */
void
expectTierStatsEqual(const harness::Metrics &a,
                     const harness::Metrics &b, const std::string &ctx)
{
    ASSERT_EQ(a.done, b.done) << ctx;
    EXPECT_EQ(a.checksum, b.checksum) << ctx;
    EXPECT_EQ(a.data_snapshot, b.data_snapshot) << ctx;
    EXPECT_EQ(a.console, b.console) << ctx;
    EXPECT_EQ(a.stats.simulated(), b.stats.simulated()) << ctx;
}

/** One fuzz seed across all systems/geometries, each run two ways:
 *  threaded-code dispatch and the always-decode single-step oracle
 *  (predecode off too). */
void
fuzzSystemsSeed(std::uint32_t seed, const test::FuzzOptions &opts = {})
{
    auto w = test::randomProgram(seed, opts);
    support::Rng rng(seed ^ 0xDECAF);

    // All six runs per seed (baseline oracle + 3 SwapRAM geometries +
    // 2 block-cache geometries) are independent, so the whole case is
    // one engine batch; asserts happen after it drains.
    harness::RunSpec base_spec;
    base_spec.workload = &w;
    base_spec.system = harness::System::Baseline;
    base_spec.include_lib = false;

    std::vector<harness::RunSpec> specs;
    std::vector<std::string> notes;
    specs.push_back(base_spec);
    notes.push_back("baseline");

    // SwapRAM under three random cache geometries + both policies.
    for (int trial = 0; trial < 3; ++trial) {
        harness::RunSpec spec = base_spec;
        spec.system = harness::System::SwapRam;
        std::uint16_t size = static_cast<std::uint16_t>(
            16 + 2 * rng.below(1024));
        spec.swap.cache_base = 0x2000;
        spec.swap.cache_end =
            static_cast<std::uint16_t>(0x2000 + (size & ~1));
        spec.swap.policy = (trial & 1) ? cache::Policy::Stack
                                       : cache::Policy::CircularQueue;
        specs.push_back(spec);
        notes.push_back("swapram cache " + std::to_string(size));
    }

    // Block cache under two random slot geometries. Its runtime
    // destroys the flags at its block boundaries, which only a flag
    // consumer's direct producer may not straddle: version 4's flag
    // chains are no program for it.
    for (int trial = 0; trial < (opts.version >= 4 ? 0 : 2); ++trial) {
        harness::RunSpec spec = base_spec;
        spec.system = harness::System::BlockCache;
        spec.block.cache_base = 0x2000;
        std::uint16_t slots = static_cast<std::uint16_t>(
            2 + rng.below(30));
        spec.block.slot_bytes = 64;
        spec.block.cache_end =
            static_cast<std::uint16_t>(0x2000 + 64 * slots);
        specs.push_back(spec);
        notes.push_back("block slots " + std::to_string(slots));
    }

    // Tier differential: every run two ways — threaded-code dispatch
    // and the always-decode single-step oracle. Both must produce
    // byte-identical results on code shapes the curated workloads
    // never exercise.
    const std::size_t n = specs.size();
    for (std::size_t i = 0; i < n; ++i) {
        specs[i].superblock = true;
        specs[i].threaded = true;
    }
    for (std::size_t i = 0; i < n; ++i) {
        harness::RunSpec oracle = specs[i];
        oracle.superblock = false;
        oracle.threaded = false;
        oracle.predecode = false;
        specs.push_back(oracle);
    }

    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll(specs);

    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error_text;
    const harness::Metrics &base = outcomes[0].metrics;
    ASSERT_TRUE(base.fits) << base.fit_note;
    ASSERT_TRUE(base.done);

    for (std::size_t i = 1; i < n; ++i) {
        std::string ctx =
            "seed " + std::to_string(seed) + " " + notes[i];
        ASSERT_TRUE(outcomes[i].ok())
            << ctx << ": " << outcomes[i].error_text;
        const harness::Metrics &m = outcomes[i].metrics;
        ASSERT_TRUE(m.done) << ctx;
        EXPECT_EQ(m.checksum, base.checksum) << ctx;
        EXPECT_EQ(m.data_snapshot, base.data_snapshot) << ctx;
    }

    // The fast side must really have run: summed over the seed's
    // runs, more than half the instructions retire threaded.
    std::uint64_t instructions = 0, threaded_instructions = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::string base_ctx =
            "seed " + std::to_string(seed) + " " + notes[i];
        ASSERT_TRUE(outcomes[n + i].ok())
            << base_ctx << ": " << outcomes[n + i].error_text;
        const harness::Metrics &threaded = outcomes[i].metrics;
        const harness::Metrics &oracle = outcomes[n + i].metrics;
        expectTierStatsEqual(threaded, oracle,
                             base_ctx + " threaded vs oracle");
        instructions += threaded.stats.instructions;
        threaded_instructions += threaded.stats.threaded_instructions;
    }
    EXPECT_GT(2 * threaded_instructions, instructions)
        << "seed " << seed << ": only " << threaded_instructions
        << " of " << instructions << " instructions ran threaded";
}

TEST_P(FuzzSystems, CachingSystemsMatchBaseline)
{
    fuzzSystemsSeed(GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzSystems,
                         ::testing::Range(1u, 25u));

TEST(FuzzSystemsExtended, ThreadedTierWideSeedShard)
{
    const char *flag = std::getenv("SWAPRAM_FUZZ_EXTENDED");
    if (!flag || flag[0] == '\0' || flag[0] == '0')
        GTEST_SKIP()
            << "set SWAPRAM_FUZZ_EXTENDED=1 for the wide tier sweep";
    for (std::uint32_t seed = 400; seed < 440; ++seed)
        fuzzSystemsSeed(seed);
}

/** Version-3 programs: memory-to-memory statements on every system,
 *  threaded against the oracle. A few seeds run with the tier-1
 *  suite; the wide shard runs with the extended ones. */
test::FuzzOptions
memToMem()
{
    test::FuzzOptions opts;
    opts.version = 3;
    return opts;
}

class FuzzMemToMem : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FuzzMemToMem, CachingSystemsMatchBaseline)
{
    fuzzSystemsSeed(GetParam(), memToMem());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzMemToMem,
                         ::testing::Range(1u, 9u));

TEST(FuzzSystemsExtended, MemoryToMemorySeedShard)
{
    const char *flag = std::getenv("SWAPRAM_FUZZ_EXTENDED");
    if (!flag || flag[0] == '\0' || flag[0] == '0')
        GTEST_SKIP()
            << "set SWAPRAM_FUZZ_EXTENDED=1 for the memory-form sweep";
    for (std::uint32_t seed = 500; seed < 540; ++seed)
        fuzzSystemsSeed(seed, memToMem());
}

/** Version-4 programs: flag chains (a writer, neutral ops or a memory
 *  op that can stop the chain, a reader or an overwriter) inside
 *  loops, with the tick ISR on, threaded against the oracle. */
test::FuzzOptions
flagChains()
{
    test::FuzzOptions opts;
    opts.version = 4;
    opts.allow_interrupts = true;
    return opts;
}

class FuzzFlagChains : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FuzzFlagChains, CachingSystemsMatchBaseline)
{
    fuzzSystemsSeed(GetParam(), flagChains());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzFlagChains,
                         ::testing::Range(1u, 9u));

TEST(FuzzSystemsExtended, FlagChainSeedShard)
{
    const char *flag = std::getenv("SWAPRAM_FUZZ_EXTENDED");
    if (!flag || flag[0] == '\0' || flag[0] == '0')
        GTEST_SKIP()
            << "set SWAPRAM_FUZZ_EXTENDED=1 for the flag-chain sweep";
    for (std::uint32_t seed = 600; seed < 640; ++seed)
        fuzzSystemsSeed(seed, flagChains());
}

} // namespace
