/**
 * @file
 * Predecode fast-path tests. The cache is a host-side optimization
 * only: simulated results (registers, memory, checksums, cycle and
 * stall counts) must be bit-identical with the cache on or off. The
 * dangerous case is self-modifying code — SwapRAM copies function
 * bodies into SRAM at runtime, overwriting words whose decode may be
 * cached — so every test here runs with predecode enabled and with it
 * disabled (the always-decode oracle) and demands identical results.
 */

#include <gtest/gtest.h>

#include "harness/engine.hh"
#include "testutil.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using isa::Reg;

sim::MachineConfig
withPredecode(bool enabled)
{
    sim::MachineConfig config;
    config.predecode_enabled = enabled;
    // These tests assert the per-step predecode counters; threaded
    // dispatch (tested separately in threaded_test.cc) retires most
    // instructions without consulting the predecode cache.
    config.superblock_enabled = false;
    return config;
}

/**
 * Direct-store self-modification. `inner` is called twice so its
 * decode is hot in the predecode cache, then one word of it is
 * overwritten through the bus (the donor word comes from a
 * never-executed instruction), and it is called again. With correct
 * write invalidation the third call re-decodes and adds 2; a stale
 * entry would add 1.
 */
const char kSelfModifyingBody[] =
    "        MOV #0, R12\n"
    "        CALL #inner\n"
    "        CALL #inner\n"
    "        MOV &alt, &patch\n"
    "        CALL #inner\n"
    "        JMP done\n"
    "inner:\n"
    "patch:  ADD #1, R12\n"
    "        RET\n"
    "alt:    ADD #2, R12\n"
    "done:\n";

TEST(Predecode, StoreIntoCachedInstructionForcesRedecode)
{
    test::MiniRun run =
        test::runBody(kSelfModifyingBody, withPredecode(true));
    EXPECT_EQ(run.reg(Reg::R12), 4) << "stale decode executed";
    EXPECT_GT(run.stats().predecode_hits, 0u);
    EXPECT_GT(run.stats().predecode_invalidations, 0u);
}

TEST(Predecode, SelfModifyingCodeMatchesDisabledCacheOracle)
{
    test::MiniRun on =
        test::runBody(kSelfModifyingBody, withPredecode(true));
    test::MiniRun off =
        test::runBody(kSelfModifyingBody, withPredecode(false));
    EXPECT_EQ(off.stats().predecode_hits, 0u);
    EXPECT_EQ(on.reg(Reg::R12), off.reg(Reg::R12));
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated());
}

/** Same store-into-code hazard, but with the code resident in SRAM —
 *  the exact shape SwapRAM produces after a copy-in. */
TEST(Predecode, SramResidentCodeIsInvalidatedToo)
{
    masm::LayoutSpec layout;
    layout.text_base = 0x2400; // SRAM; stack grows down from 0x3000
    test::MiniRun on = test::runBody(kSelfModifyingBody,
                                     withPredecode(true), layout);
    test::MiniRun off = test::runBody(kSelfModifyingBody,
                                      withPredecode(false), layout);
    EXPECT_EQ(on.reg(Reg::R12), 4);
    EXPECT_EQ(off.reg(Reg::R12), 4);
    EXPECT_GT(on.stats().predecode_invalidations, 0u);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated());
}

/** Two callees that thrash through a cache sized for only one of
 *  them, so every iteration copies a fresh body over SRAM words the
 *  previous call just executed. */
const char kThrashSource[] = R"(
        .text
        .func main
        PUSH R10
        MOV #200, R10
m_loop: CALL #f_one
        CALL #f_two
        DEC R10
        JNZ m_loop
        MOV &acc, R12
        MOV R12, &bench_result
        POP R10
        RET
        .endfunc
        .func f_one
        ADD #3, &acc
        ADD #5, &acc
        ADD #7, &acc
        RET
        .endfunc
        .func f_two
        XOR #0x1111, &acc
        ADD #9, &acc
        XOR #0x0707, &acc
        RET
        .endfunc
        .data
        .align 2
acc:    .word 0
bench_result: .word 0
)";

/**
 * SwapRAM copy-in over previously executed SRAM — the load-bearing
 * invalidation case. f_one and f_two evict each other every loop
 * iteration, so the runtime repeatedly memcpy's a different function
 * body over SRAM addresses whose decode was hot one call earlier. A
 * stale decode would execute the wrong instruction stream; the
 * disabled-cache run is the oracle.
 */
TEST(Predecode, SwapRamCopyInOverExecutedSramMatchesOracle)
{
    std::uint16_t acc = 0;
    for (int i = 0; i < 200; ++i) {
        acc = static_cast<std::uint16_t>(acc + 15);
        acc ^= 0x1111;
        acc = static_cast<std::uint16_t>(acc + 9);
        acc ^= 0x0707;
    }
    workloads::Workload w;
    w.name = "thrash";
    w.display = "THRASH";
    w.source = kThrashSource;
    w.expected = acc;

    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = harness::System::SwapRam;
    spec.observe.swap_timeline = true;
    // Only one callee fits at a time; each call evicts the other.
    spec.swap.cache_base = 0x2000;
    spec.swap.cache_end = 0x2020; // 32 bytes: one callee at a time
    spec.superblock = false;      // asserting predecode counters

    harness::RunSpec oracle = spec;
    oracle.predecode = false;

    harness::Metrics on = harness::runOne(spec);
    harness::Metrics off = harness::runOne(oracle);

    ASSERT_TRUE(on.fits && on.done);
    EXPECT_EQ(on.checksum, w.expected) << "stale decode executed";
    EXPECT_GT(on.swap_summary.copy_ins, 100u) << "test needs thrash";
    EXPECT_GT(on.swap_summary.evictions, 100u);
    EXPECT_GT(on.stats.predecode_hits, 0u);
    EXPECT_GT(on.stats.predecode_invalidations, 0u);
    EXPECT_EQ(off.stats.predecode_hits, 0u);

    EXPECT_EQ(on.checksum, off.checksum);
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated());
    EXPECT_EQ(on.swap_summary.copy_ins, off.swap_summary.copy_ins);
    EXPECT_EQ(on.swap_summary.evictions, off.swap_summary.evictions);
}

/** Full differential sweep: every workload under every system, cache
 *  on vs off, must agree on all simulated observables. */
TEST(Predecode, FullMatrixMatchesDisabledCacheOracle)
{
    const harness::System systems[] = {harness::System::Baseline,
                                       harness::System::SwapRam,
                                       harness::System::BlockCache};
    std::vector<harness::RunSpec> specs;
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system : systems) {
            harness::RunSpec spec = harness::sweepSpec(w, system);
            names.push_back(w.name + "/" + harness::systemName(system));
            specs.push_back(spec);
            spec.predecode = false;
            specs.push_back(spec);
        }
    }
    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 2) {
        const std::string &key = names[i / 2];
        ASSERT_TRUE(outcomes[i].ok()) << key;
        ASSERT_TRUE(outcomes[i + 1].ok()) << key;
        const harness::Metrics &on = outcomes[i].metrics;
        const harness::Metrics &off = outcomes[i + 1].metrics;
        ASSERT_EQ(on.fits, off.fits) << key;
        if (!on.fits)
            continue;
        EXPECT_EQ(on.checksum, off.checksum) << key;
        EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << key;
        EXPECT_EQ(on.energy_pj, off.energy_pj) << key;
    }
}

} // namespace
