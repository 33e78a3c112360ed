/**
 * @file
 * The assembler's diagnostics, word for word.
 *
 * Each case is a source whose assembly fails. The expected messages
 * were recorded from the string-keyed assembler that interned symbols
 * replaced; they must not change, except that a duplicate symbol and a
 * literal operand that does not fit in 16 bits now name the line of
 * the offending statement (they named none, or line 0). Each source is
 * checked twice: from masm::assemble, where lines count from the top
 * of the source, and as a workload through harness::runOne, where the
 * message names the workload and the line within it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

struct Case {
    const char *name;
    std::string source;    ///< a workload's source (defines main)
    const char *assembled; ///< masm::assemble's message
    const char *run;       ///< runOne's message, baseline or SwapRAM
};

/** A workload source: main returns, then @p body. */
std::string
withMain(const std::string &body)
{
    return "        .text\n"
           "        .func main\n"
           "        RET\n"
           "        .endfunc\n" +
           body;
}

std::string
nested(int depth)
{
    std::string e = "1";
    for (int i = 0; i < depth; ++i)
        e = "(" + e + "+1)";
    return e;
}

const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = {
        {"undefined_operand", withMain("        MOV #nosuch, R4\n"),
         "fatal: line 5: undefined symbol 'nosuch'",
         "fatal: undefined_operand:5: undefined symbol 'nosuch'"},
        {"undefined_jump", withMain("        JMP nowhere\n"),
         "fatal: line 5: undefined symbol 'nowhere'",
         "fatal: undefined_jump:5: undefined symbol 'nowhere'"},
        {"undefined_word",
         withMain("        .data\n        .word 1, missing+2\n"),
         "fatal: line 6: undefined symbol 'missing'",
         "fatal: undefined_word:6: undefined symbol 'missing'"},
        {"undefined_in_equ",
         withMain("        .equ k, gone*2\n        MOV &k, R4\n"),
         "fatal: line 6: undefined symbol 'gone'",
         "fatal: undefined_in_equ:6: undefined symbol 'gone'"},
        {"duplicate_label", withMain("twice:\n        NOP\ntwice:\n"),
         "fatal: line 7: duplicate symbol 'twice'",
         "fatal: duplicate_label:7: duplicate symbol 'twice'"},
        {"duplicate_func",
         withMain("main:\n        NOP\n"),
         "fatal: line 5: duplicate symbol 'main'",
         "fatal: duplicate_func:5: duplicate symbol 'main'"},
        {"duplicate_builtin", withMain("__DONE:\n        NOP\n"),
         "fatal: line 5: duplicate symbol '__DONE'",
         "fatal: duplicate_builtin:5: duplicate symbol '__DONE'"},
        {"duplicate_end", withMain("__end_main:\n        NOP\n"),
         "fatal: line 5: duplicate symbol '__end_main'",
         "fatal: duplicate_end:5: duplicate symbol '__end_main'"},
        {"equ_cycle",
         withMain("        .equ a, b\n        .equ b, a\n"
                  "        MOV #a, R4\n"),
         "fatal: line 7: .equ recursion too deep",
         "fatal: equ_cycle:7: .equ recursion too deep"},
        {"equ_chain_in_jump",
         withMain("        .equ c, c\n        JMP c\n"),
         "fatal: line 6: .equ recursion too deep",
         "fatal: equ_chain_in_jump:6: .equ recursion too deep"},
        {"nested_expression",
         withMain("        .data\n        .word " + nested(40) + "\n"),
         "fatal: line 6: .equ recursion too deep",
         "fatal: nested_expression:6: .equ recursion too deep"},
        {"word_too_big",
         withMain("        .data\n        .word 70000\n"),
         "fatal: line 6: value 70000 does not fit in 16 bits",
         "fatal: word_too_big:6: value 70000 does not fit in 16 bits"},
        {"word_too_small",
         withMain("        .data\n        .word -40000\n"),
         "fatal: line 6: value -40000 does not fit in 16 bits",
         "fatal: word_too_small:6: value -40000 does not fit in 16 bits"},
        {"immediate_too_big", withMain("        MOV #70000, R4\n"),
         "fatal: line 5: value 70000 does not fit in 16 bits",
         "fatal: immediate_too_big:5: value 70000 does not fit in 16 bits"},
        {"absolute_too_big", withMain("        MOV &0x12345, R4\n"),
         "fatal: line 5: value 74565 does not fit in 16 bits",
         "fatal: absolute_too_big:5: value 74565 does not fit in 16 bits"},
        {"symbolic_immediate_too_big",
         withMain("        .equ big, 0x10000\n        MOV #big, R4\n"),
         "fatal: line 6: value 65536 does not fit in 16 bits",
         "fatal: symbolic_immediate_too_big:6: value 65536 does not fit "
         "in 16 bits"},
        {"jump_target_too_big",
         withMain("        .equ far, 0x10002\n        JMP far\n"),
         "fatal: line 6: value 65538 does not fit in 16 bits",
         "fatal: jump_target_too_big:6: value 65538 does not fit in 16 "
         "bits"},
        {"byte_too_big",
         withMain("        .data\n        .byte 1, 300\n"),
         "fatal: line 6: byte value 300 out of range",
         "fatal: byte_too_big:6: byte value 300 out of range"},
        {"byte_too_small",
         withMain("        .data\n        .byte -129\n"),
         "fatal: line 6: byte value -129 out of range",
         "fatal: byte_too_small:6: byte value -129 out of range"},
        {"byte_from_equ",
         withMain("        .equ v, 256\n        .data\n        .byte v\n"),
         "fatal: line 7: byte value 256 out of range",
         "fatal: byte_from_equ:7: byte value 256 out of range"},
    };
    return all;
}

std::string
assembleError(const std::string &source)
{
    try {
        masm::assemble(masm::parse(source), {});
    } catch (const support::FatalError &e) {
        return e.what();
    }
    return "(assembled)";
}

std::string
runError(const Case &c, harness::System system)
{
    workloads::Workload w;
    w.name = c.name;
    w.source = c.source;
    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = system;
    try {
        harness::runOne(spec);
    } catch (const support::FatalError &e) {
        return e.what();
    }
    return "(ran)";
}

TEST(AssemblerDiagnostics, FromAssemble)
{
    for (const Case &c : cases())
        EXPECT_EQ(assembleError(c.source), c.assembled) << c.name;
}

TEST(AssemblerDiagnostics, ThroughRunOne)
{
    for (const Case &c : cases()) {
        EXPECT_EQ(runError(c, harness::System::Baseline), c.run)
            << c.name << " baseline";
        EXPECT_EQ(runError(c, harness::System::SwapRam), c.run)
            << c.name << " swapram";
    }
}

} // namespace
