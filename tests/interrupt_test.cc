/**
 * @file
 * Timer-interrupt tests: vectoring semantics, RETI, tick accounting,
 * and the SwapRAM interaction the paper's blacklist exists for (§3.1:
 * "functions with strict timing requirements") — a blacklisted ISR
 * always executes from FRAM with deterministic latency while the
 * foreground still benefits from caching.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/runner.hh"
#include "masm/parser.hh"
#include "support/platform.hh"
#include "swapram/builder.hh"
#include "testutil.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

/** Foreground loop + tick ISR; finishes after the loop completes. */
const char *kIsrProgram = R"(
        .text
__start:
        MOV #0xFF80, SP
        ; install the ISR vector
        MOV #tick_isr, &0xFFF0
        EINT
        MOV #2000, R10
fg_loop:
        MOV #13, R12
        ADD #29, R12
        XOR R12, &fg_acc
        DEC R10
        JNZ fg_loop
        DINT
        MOV &tick_count, R12
        MOV R12, &bench_result
        MOV.B #1, &__DONE
__spin: JMP __spin

        .func tick_isr
        ADD #1, &tick_count
        RETI
        .endfunc

        .data
        .align 2
tick_count: .word 0
fg_acc:     .word 0
bench_result: .word 0
)";

test::MiniRun
runWithTimer(std::uint64_t period)
{
    sim::MachineConfig cfg;
    cfg.timer_period_cycles = period;
    masm::LayoutSpec layout; // unified
    test::MiniRun run;
    run.assembled = masm::assemble(masm::parse(kIsrProgram), layout);
    run.machine = std::make_unique<sim::Machine>(cfg);
    run.machine->load(run.assembled.image, 0xFF80);
    run.result = run.machine->run();
    return run;
}

TEST(Interrupts, TimerFiresAndIsCounted)
{
    auto r = runWithTimer(500);
    ASSERT_TRUE(r.result.done);
    std::uint16_t ticks =
        r.machine->peek16(r.assembled.symbol("tick_count"));
    EXPECT_GT(ticks, 10u);
    EXPECT_EQ(r.stats().interrupts, ticks);
    // Roughly one tick per 500 cycles while interrupts were enabled.
    std::uint64_t cycles = r.stats().totalCycles();
    EXPECT_NEAR(static_cast<double>(ticks),
                static_cast<double>(cycles) / 500.0,
                static_cast<double>(cycles) / 500.0 * 0.2 + 4);
}

TEST(Interrupts, DisabledTimerNeverFires)
{
    auto r = runWithTimer(0);
    ASSERT_TRUE(r.result.done);
    EXPECT_EQ(r.machine->peek16(r.assembled.symbol("tick_count")), 0);
    EXPECT_EQ(r.stats().interrupts, 0u);
}

TEST(Interrupts, GieGatesDelivery)
{
    // Same program but never enables interrupts: DINT path.
    std::string src = kIsrProgram;
    src.replace(src.find("        EINT"), 12, "        NOP ");
    sim::MachineConfig cfg;
    cfg.timer_period_cycles = 100;
    masm::LayoutSpec layout;
    auto assembled = masm::assemble(masm::parse(src), layout);
    sim::Machine machine(cfg);
    machine.load(assembled.image, 0xFF80);
    auto result = machine.run();
    ASSERT_TRUE(result.done);
    EXPECT_EQ(machine.peek16(assembled.symbol("tick_count")), 0);
}

TEST(Interrupts, RetiRestoresFlags)
{
    // The ISR clobbers flags; RETI must restore them so a conditional
    // straddling an interrupt still behaves.
    auto r = runWithTimer(97); // odd period: lands between CMP/JNE pairs
    ASSERT_TRUE(r.result.done);
    // The foreground loop ran to completion exactly 2000 times:
    // fg_acc = XOR of 2000 copies of 42 = 0 (even count).
    EXPECT_EQ(r.machine->peek16(r.assembled.symbol("fg_acc")), 0);
}

TEST(Interrupts, SwapRamWithBlacklistedIsr)
{
    workloads::Workload w = test::swapIsrWorkload();

    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = harness::System::SwapRam;
    spec.include_lib = false;
    spec.swap.blacklist = {"tick_isr"};
    spec.max_cycles = 50'000'000;

    // Run once without the timer to learn the deterministic part.
    auto no_timer = harness::runOne(spec);
    ASSERT_TRUE(no_timer.done);

    // runOne has no timer knob; drive the machine directly.
    auto plan = harness::makePlacement(harness::Placement::Unified);
    std::string source =
        harness::startupSource(plan.stack_top) + w.source;
    cache::Options opt;
    opt.blacklist = {"tick_isr"};
    auto info = cache::build(masm::parse(source), plan.layout, opt);
    sim::MachineConfig cfg;
    cfg.timer_period_cycles = 300;
    sim::Machine machine(cfg);
    machine.load(info.assembled.image, plan.stack_top);
    machine.addOwnerRange(info.handler_addr, info.handler_end,
                          sim::CodeOwner::Handler);
    auto result = machine.run();
    ASSERT_TRUE(result.done);

    std::uint16_t ticks =
        machine.peek16(info.assembled.symbol("tick_count"));
    EXPECT_GT(ticks, 5u);
    // The foreground accumulator must equal the no-timer run's
    // (bench_result XORs in tick_count, so compare the parts).
    std::uint16_t combined =
        machine.peek16(info.assembled.symbol("bench_result"));
    EXPECT_EQ(static_cast<std::uint16_t>(combined ^ ticks),
              no_timer.checksum);
    // The ISR is blacklisted: it never appears in the SwapRAM function
    // table, so every ISR instruction executed from FRAM while the
    // foreground `work` ran from SRAM.
    EXPECT_GT(machine.stats().instr_by_owner[int(
                  sim::CodeOwner::AppSram)],
              machine.stats().instructions / 2);
}

} // namespace
