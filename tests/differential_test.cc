/**
 * @file
 * Differential tests: the cycle-level machine (encode -> load ->
 * fetch/decode/execute) against the independent AST-level interpreter.
 * Any divergence in final registers, memory, or console output points
 * at an encoder, decoder, or CPU-semantics bug.
 */

#include <gtest/gtest.h>

#include "ast_interpreter.hh"
#include "fuzz_programs.hh"
#include "harness/runner.hh"
#include "masm/parser.hh"
#include "support/strings.hh"
#include "support/platform.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

void
compareRuns(const std::string &source, const char *what)
{
    masm::LayoutSpec layout; // unified: everything in FRAM
    auto assembled = masm::assemble(masm::parse(source), layout);

    sim::Machine machine;
    machine.load(assembled.image, 0xFF80);
    auto run = machine.run();
    ASSERT_TRUE(run.done) << what;

    auto interp = test::interpret(assembled, 0xFF80);
    ASSERT_TRUE(interp.done) << what;

    // Registers R1..R15 (PC is meaningless after halt).
    for (int r = 1; r < 16; ++r) {
        EXPECT_EQ(machine.cpu().reg(isa::regFromIndex(
                      static_cast<std::uint8_t>(r))),
                  interp.regs[r])
            << what << " R" << r;
    }
    EXPECT_EQ(machine.mmio().console(), interp.console) << what;

    // Whole memory except the MMIO window (the machine routes MMIO
    // writes to devices, the interpreter treats unknown MMIO as RAM).
    int mismatches = 0;
    for (std::uint32_t a = 0; a < 0x10000 && mismatches < 8; ++a) {
        if (a >= platform::kMmioBase && a < platform::kMmioEnd)
            continue;
        auto m = machine.peek8(static_cast<std::uint16_t>(a));
        auto i = interp.memory[a];
        if (m != i) {
            ++mismatches;
            ADD_FAILURE() << what << ": memory differs at "
                          << support::hex16(
                                 static_cast<std::uint16_t>(a))
                          << " machine=" << int(m)
                          << " interp=" << int(i);
        }
    }
}

class WorkloadDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDifferential, MachineMatchesAstInterpreter)
{
    const auto *w = workloads::find(GetParam());
    ASSERT_NE(w, nullptr);
    std::string source = harness::startupSource(0xFF80) + w->source +
                         workloads::libSource();
    compareRuns(source, w->name.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDifferential,
    ::testing::Values("stringsearch", "dijkstra", "crc", "rc4", "fft",
                      "aes", "lzfx", "bitcount", "rsa"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Differential, ArithKernel)
{
    auto w = workloads::makeArith();
    compareRuns(harness::startupSource(0xFF80) + w.source,
                "arith");
}

TEST(Differential, FlagTortureProgram)
{
    // Dense flag interactions: carries, borrows, BCD, rotates, byte
    // ops, signed comparisons.
    const char *body = R"(
        .text
        .func main
        PUSH R10
        MOV #0x7FFF, R5
        ADD #1, R5              ; overflow
        SUBC R5, R5
        MOV #0x99, R6
        SETC
        DADD.B #0x01, R6        ; BCD with carry in
        MOV #0x8000, R7
        RRA R7
        RRC R7
        MOV #0x00FF, R8
        SXT R8
        ADD.B #1, R8
        SWPB R8
        MOV #10, R10
mt_loop:
        RLA R8
        ADC R8
        DADD R10, R9
        DEC R10
        JNZ mt_loop
        MOV R9, &bench_result
        POP R10
        RET
        .endfunc
        .data
        .align 2
bench_result: .word 0
)";
    compareRuns(harness::startupSource(0xFF80) + body, "flag-torture");
}

class RandomDifferential : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RandomDifferential, MachineMatchesAstInterpreter)
{
    auto w = test::randomProgram(GetParam());
    compareRuns(harness::startupSource(0xFF80) + w.source,
                w.name.c_str());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RandomDifferential,
                         ::testing::Range(100u, 140u));

/** Version-3 programs (memory-to-memory statements) against the AST
 *  interpreter. */
class MemToMemDifferential
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MemToMemDifferential, MachineMatchesAstInterpreter)
{
    test::FuzzOptions opts;
    opts.version = 3;
    auto w = test::randomProgram(GetParam(), opts);
    compareRuns(harness::startupSource(0xFF80) + w.source,
                w.name.c_str());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, MemToMemDifferential,
                         ::testing::Range(300u, 324u));

} // namespace
