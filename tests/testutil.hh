/**
 * @file
 * Shared helpers for unit tests: assemble a snippet, run it on a
 * machine, and expose the pieces for inspection.
 */

#ifndef SWAPRAM_TESTS_TESTUTIL_HH
#define SWAPRAM_TESTS_TESTUTIL_HH

#include <memory>
#include <string>

#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace swapram::test {

/** An assembled-and-executed snippet. */
struct MiniRun {
    masm::AssembleResult assembled;
    std::unique_ptr<sim::Machine> machine;
    sim::RunResult result;

    std::uint16_t reg(isa::Reg r) { return machine->cpu().reg(r); }
    const sim::Stats &stats() const { return machine->stats(); }
};

/** Wrap a body in a standard startup that halts via __DONE. The body
 *  starts executing directly with SP = 0x3000. */
inline std::string
wrapBody(const std::string &body)
{
    return "        .text\n"
           "__start:\n"
           "        MOV #0x3000, SP\n" +
           body +
           "\n        MOV.B #0, &__DONE\n"
           "__halt: JMP __halt\n";
}

/** Assemble full source and run it. Data sections default to SRAM. */
inline MiniRun
runSource(const std::string &source, sim::MachineConfig config = {},
          masm::LayoutSpec layout = {})
{
    if (!layout.data_base)
        layout.data_base = 0x2000;
    MiniRun run;
    run.assembled = masm::assemble(masm::parse(source), layout);
    run.machine = std::make_unique<sim::Machine>(config);
    run.machine->load(run.assembled.image, 0x3000);
    run.result = run.machine->run();
    return run;
}

/** Wrap @p body with the standard prologue and run it. */
inline MiniRun
runBody(const std::string &body, sim::MachineConfig config = {},
        masm::LayoutSpec layout = {})
{
    return runSource(wrapBody(body), config, layout);
}

/** SwapRAM's strict-timing case (§3.1): a foreground loop calling a
 *  cacheable function while a tick ISR, to be blacklisted, counts
 *  timer interrupts. The timer is off until the caller sets
 *  timer_period_cycles. */
inline workloads::Workload
swapIsrWorkload()
{
    workloads::Workload w;
    w.name = "isr";
    w.display = "ISR";
    w.source = R"(
        .text
        .func main
        PUSH R10
        MOV #tick_isr, &0xFFF0
        EINT
        PUSH R9
        CLR R9
        MOV #40, R10
mi_loop:
        MOV R9, R12
        CALL #work
        MOV R12, R9
        DEC R10
        JNZ mi_loop
        DINT
        MOV R9, R12
        XOR &tick_count, R12
        MOV R12, &bench_result
        POP R9
        POP R10
        RET
        .endfunc
        .func work
        PUSH R10
        MOV #50, R10
wk_loop:
        ADD #7, R12
        XOR #0x0180, R12
        DEC R10
        JNZ wk_loop
        POP R10
        RET
        .endfunc
        .func tick_isr
        ADD #1, &tick_count
        RETI
        .endfunc
        .data
        .align 2
tick_count: .word 0
bench_result: .word 0
)";
    return w;
}

/** main spins until the ISR has counted three 300-cycle timer ticks
 *  (the third also disables interrupts), then returns the count. */
inline workloads::Workload
tickWaitWorkload()
{
    workloads::Workload w;
    w.name = "isrwl";
    w.display = w.name;
    w.source = "        .text\n"
               "fz_isr:\n"
               "        ADD #1, &ticks\n"
               "        CMP #3, &ticks\n"
               "        JNE fz_isr_ret\n"
               "        BIC #8, 0(SP)\n"
               "fz_isr_ret:\n"
               "        RETI\n"
               "        .func main\n"
               "        MOV #fz_isr, &0xFFF0\n"
               "        EINT\n"
               "wait:   CMP #3, &ticks\n"
               "        JNE wait\n"
               "        DINT\n"
               "        MOV &ticks, R12\n"
               "        MOV R12, &bench_result\n"
               "        RET\n"
               "        .endfunc\n"
               "        .data\n        .align 2\n"
               "ticks: .word 0\n"
               "bench_result: .word 0\n";
    w.expected = 3;
    w.timer_period_cycles = 300;
    return w;
}

} // namespace swapram::test

#endif // SWAPRAM_TESTS_TESTUTIL_HH
