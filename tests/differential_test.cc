/**
 * @file
 * Differential tests: the cycle-level machine (encode -> load ->
 * fetch/decode/execute), on the threaded tier and on the single-step
 * oracle, against the independent AST-level interpreter.
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

/** Run @p assembled on one tier and compare its final registers,
 *  console and memory with the interpreter's @p interp. */
void
compareTier(const masm::AssembleResult &assembled,
            const test::InterpResult &interp, bool fast,
            const std::string &what)
{
    sim::MachineConfig config;
    config.superblock_enabled = fast;
    config.threaded_enabled = fast;
    sim::Machine machine(config);
    machine.load(assembled.image, 0xFF80);
    auto run = machine.run();
    ASSERT_TRUE(run.done) << what;
    // Each leg only counts if it ran on its own tier.
    if (fast)
        EXPECT_GT(machine.stats().threaded_instructions, 0u) << what;
    else
        EXPECT_EQ(machine.stats().threaded_instructions, 0u) << what;

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

/** Both tiers against the interpreter: the tiers share one ALU
 *  (sim/exec.hh), so a tier twin alone cannot catch an ALU error. */
void
compareRuns(const std::string &source, const char *what)
{
    masm::LayoutSpec layout; // unified: everything in FRAM
    auto assembled = masm::assemble(masm::parse(source), layout);

    auto interp = test::interpret(assembled, 0xFF80);
    ASSERT_TRUE(interp.done) << what;

    compareTier(assembled, interp, true, std::string(what) + " [fast]");
    compareTier(assembled, interp, false,
                std::string(what) + " [oracle]");
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

TEST(Differential, FlagMatrix)
{
    // Every ALU op, byte and word, over operand pairs at the sign and
    // carry edges, each op's full N/Z/C/V (and its result) folded into
    // a checksum: an ALU flag rule wrong on both tiers alike shows
    // here against the interpreter. The carry in of ADDC/SUBC/DADD/RRC
    // is whatever the op before left.
    const char *body = R"(
        .text
        .func main
        PUSH R10
        MOV #fm_pairs, R4
        MOV #12, R10
        CLR R9
fm_loop:
        MOV @R4+, R5
        MOV @R4+, R6
        MOV R6, R8
        SUBC.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        ADDC.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        SUB.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        CMP.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        ADD.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        XOR.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        AND.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        BIT.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        DADD.B R5, R8
        CALL #fm_fold
        MOV R6, R8
        SUBC R5, R8
        CALL #fm_fold
        MOV R6, R8
        ADDC R5, R8
        CALL #fm_fold
        MOV R6, R8
        SUB R5, R8
        CALL #fm_fold
        MOV R6, R8
        CMP R5, R8
        CALL #fm_fold
        MOV R6, R8
        ADD R5, R8
        CALL #fm_fold
        MOV R6, R8
        XOR R5, R8
        CALL #fm_fold
        MOV R6, R8
        AND R5, R8
        CALL #fm_fold
        MOV R6, R8
        BIT R5, R8
        CALL #fm_fold
        MOV R6, R8
        DADD R5, R8
        CALL #fm_fold
        MOV R6, R8
        RRC.B R8
        CALL #fm_fold
        MOV R6, R8
        RRA.B R8
        CALL #fm_fold
        MOV R6, R8
        RRC R8
        CALL #fm_fold
        MOV R6, R8
        RRA R8
        CALL #fm_fold
        MOV R6, R8
        SXT R8
        CALL #fm_fold
        MOV R6, R8
        SWPB R8
        CALL #fm_fold
        DEC R10
        JNZ fm_loop
        MOV R9, &bench_result
        POP R10
        RET
        .endfunc

        ; R9 = (R9 + flags + result) rotated left one bit; keeps C.
        .func fm_fold
        MOV SR, R7
        AND #0x0107, R7
        ADD R7, R9
        ADD R8, R9
        RLA R9
        ADC R9
        MOV R7, SR
        RET
        .endfunc
        .data
        .align 2
fm_pairs:
        .word 0x0080, 0x0001, 0x007F, 0x00FF, 0x0001, 0x0080
        .word 0x00FF, 0x0000, 0x8000, 0x0001, 0x7FFF, 0xFFFF
        .word 0x0001, 0x8000, 0xFFFF, 0x0000, 0x0099, 0x0001
        .word 0x9999, 0x0001, 0x0050, 0x0050, 0x8080, 0x7F7F
bench_result: .word 0
)";
    compareRuns(harness::startupSource(0xFF80) + body, "flag-matrix");
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
