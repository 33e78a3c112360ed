/**
 * @file
 * Power-failure fault injection and crash-safe recovery (ISSUE 2).
 *
 * Covers the FaultInjector schedules, the Machine's reboot semantics
 * (SRAM zeroed, FRAM preserved, .data/.bss re-initialised, CPU and
 * peripherals reset), the stale-redirection crash both cache runtimes
 * exhibit WITHOUT boot recovery (kept as a regression demonstration),
 * convergence WITH recovery, and the reboot/recovery accounting that
 * flows into Stats, SwapSummary, and the RunReport JSON.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "testutil.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

// ---- FaultInjector unit behaviour ----

TEST(FaultInjector, OnceFiresExactlyOnce)
{
    sim::FaultInjector fi(sim::FaultPlan::once(1000));
    EXPECT_FALSE(fi.shouldFail(0));
    EXPECT_FALSE(fi.shouldFail(999));
    EXPECT_TRUE(fi.shouldFail(1000));
    EXPECT_FALSE(fi.shouldFail(2000));
    EXPECT_FALSE(fi.shouldFail(1u << 30));
    EXPECT_EQ(fi.failures(), 1u);
}

TEST(FaultInjector, PeriodicGivesEachBootItsUptime)
{
    // Period counts uptime per boot: after a failure at cycle T the
    // next failure is scheduled at T + period, not at the next
    // multiple of the period.
    sim::FaultInjector fi(sim::FaultPlan::periodic(100));
    EXPECT_TRUE(fi.shouldFail(100));
    EXPECT_FALSE(fi.shouldFail(150));
    EXPECT_FALSE(fi.shouldFail(199));
    EXPECT_TRUE(fi.shouldFail(250)); // rescheduled to 250 + 100
    EXPECT_EQ(fi.nextFailureCycle(), 350u);
}

TEST(FaultInjector, MaxFailuresBoundsTheSchedule)
{
    sim::FaultInjector fi(sim::FaultPlan::periodic(10, 3));
    int failures = 0;
    for (std::uint64_t cycle = 0; cycle < 1000; ++cycle) {
        if (fi.shouldFail(cycle))
            ++failures;
    }
    EXPECT_EQ(failures, 3);
    EXPECT_EQ(fi.nextFailureCycle(), UINT64_MAX);
}

TEST(FaultInjector, RandomScheduleIsSeededAndBounded)
{
    auto gaps = [](std::uint32_t seed) {
        sim::FaultInjector fi(
            sim::FaultPlan::random(50, 500, seed, 20));
        std::vector<std::uint64_t> cycles;
        std::uint64_t prev = 0;
        for (std::uint64_t cycle = 0; cycle < 100'000; ++cycle) {
            if (fi.shouldFail(cycle)) {
                cycles.push_back(cycle - prev);
                prev = cycle;
            }
        }
        return cycles;
    };
    auto a = gaps(7), b = gaps(7), c = gaps(8);
    EXPECT_EQ(a, b);          // deterministic per seed
    EXPECT_NE(a, c);          // seed-dependent
    EXPECT_EQ(a.size(), 20u); // bounded by max_failures
    for (std::uint64_t g : a) {
        EXPECT_GE(g, 50u);
        EXPECT_LE(g, 500u); // gap bounds are inclusive
    }
}

// ---- Machine reboot semantics ----

/** A program that distinguishes boots via an FRAM cell (writable,
 *  persistent) and proves SRAM .data was re-initialised from the
 *  image rather than left holding the pre-failure value. */
TEST(PowerFail, RebootZeroesSramAndPreservesFram)
{
    // marker lives in .const (FRAM): the first boot flips it to 1 and
    // spins until power dies. The write survives the reboot, so the
    // second boot takes the exit path — after checking that scratch
    // (SRAM .data, clobbered to 0xAAAA before the failure) was
    // re-initialised to its image value.
    std::string source =
        "        .text\n"
        "__start:\n"
        "        MOV #0x3000, SP\n"
        "        CMP #7, &marker\n"
        "        JNE second_boot\n"
        "        MOV #1, &marker\n"
        "        MOV #0xAAAA, &scratch\n"
        "spin:   JMP spin\n"
        "second_boot:\n"
        "        MOV &scratch, R12\n"
        "        MOV R12, &observed\n"
        "        MOV #0xBEEF, R12\n"
        "        MOV R12, &bench_result\n"
        "        MOV.B #1, &__DONE\n"
        "halt:   JMP halt\n"
        "        .const\n        .align 2\n"
        "marker: .word 7\n"
        "        .data\n        .align 2\n"
        "scratch: .word 5\n"
        "observed: .word 0\n"
        "bench_result: .word 0\n";

    sim::MachineConfig config;
    masm::LayoutSpec layout;
    layout.data_base = 0x2000; // .data in SRAM
    auto assembled = masm::assemble(masm::parse(source), layout);
    sim::Machine machine(config);
    machine.load(assembled.image, 0x3000);
    sim::FaultInjector fi(sim::FaultPlan::once(200));
    machine.setFaultInjector(&fi);
    auto result = machine.run();

    ASSERT_TRUE(result.done);
    EXPECT_EQ(machine.stats().reboots, 1u);
    EXPECT_EQ(machine.peek16(assembled.symbol("bench_result")),
              0xBEEF);
    // The FRAM write persisted across the power cycle...
    EXPECT_EQ(machine.peek16(assembled.symbol("marker")), 1);
    // ...while the SRAM cell was re-initialised from the image.
    EXPECT_EQ(machine.peek16(assembled.symbol("observed")), 5);
}

TEST(PowerFail, BaselineWorkloadsConvergeAcrossReboots)
{
    const workloads::Workload *w = workloads::find("crc");
    ASSERT_NE(w, nullptr);
    harness::RunSpec spec;
    spec.workload = w;
    spec.intermittent.plan = sim::FaultPlan::periodic(5'000, 4);
    auto check = harness::checkIntermittent(spec);
    EXPECT_TRUE(check.match());
    EXPECT_EQ(check.faulted.stats.reboots, 4u);
    EXPECT_EQ(check.reference.stats.reboots, 0u);
}

// ---- The stale-redirection crash (regression demonstration) ----
//
// Without boot recovery, the FRAM-resident redirection metadata both
// cache runtimes keep survives the power loss while the SRAM copies
// it points into do not: the first redirected call after the reboot
// lands in zeroed memory and the machine faults decoding word 0.
// These tests pin the pre-fix behaviour; the Converge tests below pin
// the fix.

harness::RunSpec
faultedSpec(harness::System system, bool recovery)
{
    static workloads::Workload arith = workloads::makeArith();
    harness::RunSpec spec;
    spec.workload = &arith;
    spec.system = system;
    spec.intermittent.plan = sim::FaultPlan::periodic(5'000, 6);
    spec.swap.boot_recovery = recovery;
    spec.block.boot_recovery = recovery;
    return spec;
}

TEST(PowerFail, SwapRamCrashesOnStaleRedirectWithoutRecovery)
{
    auto spec = faultedSpec(harness::System::SwapRam, false);
    EXPECT_THROW(harness::runOne(spec), support::FatalError);
}

TEST(PowerFail, BlockCacheCrashesOnStaleMapWithoutRecovery)
{
    auto spec = faultedSpec(harness::System::BlockCache, false);
    EXPECT_THROW(harness::runOne(spec), support::FatalError);
}

TEST(PowerFail, SwapRamConvergesWithRecovery)
{
    auto spec = faultedSpec(harness::System::SwapRam, true);
    auto check = harness::checkIntermittent(spec);
    EXPECT_TRUE(check.match());
    EXPECT_EQ(check.faulted.stats.reboots, 6u);
    EXPECT_GT(check.faulted.stats.recovery_cycles, 0u);
    // The clean run's guarded recovery call is nearly free.
    EXPECT_LT(check.reference.stats.recovery_cycles, 50u);
}

TEST(PowerFail, BlockCacheConvergesWithRecovery)
{
    auto spec = faultedSpec(harness::System::BlockCache, true);
    auto check = harness::checkIntermittent(spec);
    EXPECT_TRUE(check.match());
    EXPECT_EQ(check.faulted.stats.reboots, 6u);
    EXPECT_GT(check.faulted.stats.recovery_cycles, 0u);
}

TEST(PowerFail, RecoveryCostScalesWithRebootCountNotRunLength)
{
    auto few = faultedSpec(harness::System::SwapRam, true);
    few.intermittent.plan = sim::FaultPlan::periodic(5'000, 2);
    auto many = faultedSpec(harness::System::SwapRam, true);
    many.intermittent.plan = sim::FaultPlan::periodic(5'000, 8);
    auto m_few = harness::runOne(few);
    auto m_many = harness::runOne(many);
    ASSERT_TRUE(m_few.done && m_many.done);
    EXPECT_EQ(m_few.stats.reboots, 2u);
    EXPECT_EQ(m_many.stats.reboots, 8u);
    // Per-reboot recovery cost is roughly constant.
    EXPECT_NEAR(static_cast<double>(m_many.stats.recovery_cycles) /
                    static_cast<double>(m_few.stats.recovery_cycles),
                4.0, 1.0);
}

// ---- Timeline + report accounting ----

TEST(PowerFail, TimelineRecordsPowerEventsAndReport)
{
    auto spec = faultedSpec(harness::System::SwapRam, true);
    spec.observe.swap_timeline = true;
    auto m = harness::runOne(spec);
    ASSERT_TRUE(m.done);
    EXPECT_EQ(m.swap_summary.power_failures, 6u);
    EXPECT_EQ(m.swap_summary.recovery_cycles,
              m.stats.recovery_cycles);

    int power_events = 0, recovery_events = 0;
    for (const trace::SwapEvent &e : m.swap_events) {
        if (e.kind == trace::EventKind::PowerFail)
            ++power_events;
        else if (e.kind == trace::EventKind::RecoveryExit)
            ++recovery_events;
    }
    EXPECT_EQ(power_events, 6);
    // One guarded (cheap) recovery on first boot + 6 recovery boots.
    EXPECT_EQ(recovery_events, 7);

    auto report = harness::RunReport::make(spec, m);
    std::string json = report.json().dump(0);
    EXPECT_NE(json.find("\"reboots\""), std::string::npos);
    EXPECT_NE(json.find("\"recovery_cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"power_failures\""), std::string::npos);
    std::string text = report.text();
    EXPECT_NE(text.find("power: reboots=6"), std::string::npos);
}

TEST(PowerFail, InterruptDrivenWorkloadSurvivesReboots)
{
    // A workload that expects a timer interrupt keeps its configured
    // period across reboots (timer state is reset like hardware).
    workloads::Workload w = test::tickWaitWorkload();

    harness::RunSpec spec;
    spec.workload = &w;
    spec.include_lib = false;
    // Each boot gets 400 cycles: at most one 300-cycle-period tick
    // lands before power dies, so only the final boot completes.
    spec.intermittent.plan = sim::FaultPlan::periodic(400, 3);
    auto check = harness::checkIntermittent(spec);
    EXPECT_TRUE(check.match());
    EXPECT_EQ(check.reference.checksum, 3u);
    EXPECT_EQ(check.faulted.stats.reboots, 3u);
}

} // namespace
