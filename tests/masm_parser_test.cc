/**
 * @file
 * Parser unit tests: operand forms, pseudo-instruction expansion,
 * directives, labels, and error cases.
 */

#include <gtest/gtest.h>

#include <string>

#include "masm/parser.hh"
#include "support/logging.hh"

namespace {

using namespace swapram;
using masm::Directive;
using masm::OperKind;
using masm::parse;
using masm::Statement;
using isa::Op;

const masm::AsmInstr &
onlyInstr(const masm::Program &p)
{
    const masm::AsmInstr *found = nullptr;
    for (const Statement &s : p.stmts) {
        if (s.kind == Statement::Kind::Instr) {
            EXPECT_EQ(found, nullptr) << "more than one instruction";
            found = &s.instr;
        }
    }
    EXPECT_NE(found, nullptr);
    return *found;
}

TEST(Parser, OperandForms)
{
    auto p = parse("        MOV #12, R5\n");
    const auto &i = onlyInstr(p);
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_EQ(i.src->kind, OperKind::Immediate);
    EXPECT_EQ(i.src->expr.constantFold(), 12);
    EXPECT_EQ(i.dst->kind, OperKind::Register);
    EXPECT_EQ(i.dst->reg, isa::Reg::R5);

    p = parse("        ADD.B @R4+, 2(R5)\n");
    const auto &j = onlyInstr(p);
    EXPECT_TRUE(j.byte);
    EXPECT_EQ(j.src->kind, OperKind::IndirectInc);
    EXPECT_EQ(j.dst->kind, OperKind::Indexed);
    EXPECT_EQ(j.dst->expr.constantFold(), 2);

    p = parse("        CMP &0x200, var\n");
    const auto &k = onlyInstr(p);
    EXPECT_EQ(k.src->kind, OperKind::Absolute);
    EXPECT_EQ(k.dst->kind, OperKind::SymbolicMem);
    EXPECT_TRUE(k.dst->expr.isSymbol());
}

TEST(Parser, JumpTargets)
{
    auto p = parse("        JNE loop\n");
    const auto &i = onlyInstr(p);
    EXPECT_EQ(i.op, Op::Jne);
    EXPECT_EQ(i.jump_target.symbol(), "loop");

    // Aliases.
    EXPECT_EQ(onlyInstr(parse("        JZ x\n")).op, Op::Jeq);
    EXPECT_EQ(onlyInstr(parse("        JHS x\n")).op, Op::Jc);
    EXPECT_EQ(onlyInstr(parse("        JLO x\n")).op, Op::Jnc);
}

TEST(Parser, PseudoExpansion)
{
    // RET -> MOV @SP+, PC
    auto i = onlyInstr(parse("        RET\n"));
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_EQ(i.src->kind, OperKind::IndirectInc);
    EXPECT_EQ(i.src->reg, isa::Reg::SP);
    EXPECT_EQ(i.dst->reg, isa::Reg::PC);

    // BR #label -> MOV #label, PC
    i = onlyInstr(parse("        BR #func\n"));
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_EQ(i.src->kind, OperKind::Immediate);
    EXPECT_EQ(i.dst->reg, isa::Reg::PC);

    // POP R7 -> MOV @SP+, R7
    i = onlyInstr(parse("        POP R7\n"));
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_EQ(i.dst->reg, isa::Reg::R7);

    // INC/DEC/INV/TST/CLR
    EXPECT_EQ(onlyInstr(parse("        INC R5\n")).op, Op::Add);
    EXPECT_EQ(onlyInstr(parse("        DECD R5\n")).op, Op::Sub);
    EXPECT_EQ(onlyInstr(parse("        INV R5\n")).op, Op::Xor);
    EXPECT_EQ(onlyInstr(parse("        TST R5\n")).op, Op::Cmp);
    EXPECT_EQ(onlyInstr(parse("        CLR.B buf\n")).op, Op::Mov);

    // RLA R5 -> ADD R5, R5
    i = onlyInstr(parse("        RLA R5\n"));
    EXPECT_EQ(i.op, Op::Add);
    EXPECT_EQ(i.src->reg, isa::Reg::R5);
    EXPECT_EQ(i.dst->reg, isa::Reg::R5);

    // CLRC -> BIC #1, SR
    i = onlyInstr(parse("        CLRC\n"));
    EXPECT_EQ(i.op, Op::Bic);
    EXPECT_EQ(i.dst->reg, isa::Reg::SR);
}

TEST(Parser, Directives)
{
    auto p = parse("        .text\n"
                   "        .func foo\n"
                   "        RET\n"
                   "        .endfunc\n"
                   "        .data\n"
                   "tbl:    .word 1, 2, 3+4\n"
                   "        .byte 'x'\n"
                   "        .space 16\n"
                   "        .align 2\n"
                   "msg:    .asciz \"hi\"\n"
                   "        .equ K, 10*2\n");
    int words = 0, funcs = 0;
    for (const Statement &s : p.stmts) {
        if (s.kind != Statement::Kind::Directive)
            continue;
        if (s.directive == Directive::Word) {
            ++words;
            ASSERT_EQ(s.args.size(), 3u);
            EXPECT_EQ(s.args[2].constantFold(), 7);
        }
        if (s.directive == Directive::Func) {
            ++funcs;
            EXPECT_EQ(s.name.str(), "foo");
        }
        if (s.directive == Directive::Equ) {
            EXPECT_EQ(s.name.str(), "K");
            EXPECT_EQ(s.args[0].constantFold(), 20);
        }
    }
    EXPECT_EQ(words, 1);
    EXPECT_EQ(funcs, 1);

    auto funcs_found = masm::findFunctions(p);
    ASSERT_EQ(funcs_found.size(), 1u);
    EXPECT_EQ(funcs_found[0].name.str(), "foo");
}

TEST(Parser, MultipleLabels)
{
    auto p = parse("a: b:   NOP\n");
    ASSERT_GE(p.stmts.size(), 3u);
    EXPECT_EQ(p.stmts[0].label.str(), "a");
    EXPECT_EQ(p.stmts[1].label.str(), "b");
    EXPECT_EQ(p.stmts[2].kind, Statement::Kind::Instr);
}

TEST(Parser, ExpressionPrecedence)
{
    auto i = onlyInstr(parse("        MOV #1+2*3, R5\n"));
    EXPECT_EQ(i.src->expr.constantFold(), 7);
    i = onlyInstr(parse("        MOV #(1+2)*3, R5\n"));
    EXPECT_EQ(i.src->expr.constantFold(), 9);
    i = onlyInstr(parse("        MOV #1<<4, R5\n"));
    EXPECT_EQ(i.src->expr.constantFold(), 16);
    i = onlyInstr(parse("        MOV #-3, R5\n"));
    EXPECT_EQ(i.src->expr.constantFold(), -3);
}

TEST(Parser, Errors)
{
    EXPECT_THROW(parse("        FROB R5\n"), support::FatalError);
    EXPECT_THROW(parse("        MOV R5\n"), support::FatalError);
    EXPECT_THROW(parse("        JNE R5\n"), support::FatalError);
    EXPECT_THROW(parse("        RETI R5\n"), support::FatalError);
    EXPECT_THROW(parse("        MOV.X R5, R6\n"), support::FatalError);
    EXPECT_THROW(parse("        JMP.B x\n"), support::FatalError);
    EXPECT_THROW(parse("        .word\n"), support::FatalError);
    EXPECT_THROW(parse("        .bogus 1\n"), support::FatalError);
    EXPECT_THROW(parse("        MOV #1, R5 garbage\n"),
                 support::FatalError);
}

TEST(Parser, ProgramTextRoundTrips)
{
    const char *source = "        .text\n"
                         "        .func f\n"
                         "        MOV #10, R12\n"
                         "l1:\n"
                         "        DEC R12\n"
                         "        JNE l1\n"
                         "        RET\n"
                         "        .endfunc\n";
    auto p1 = parse(source);
    auto p2 = parse(p1.text());
    EXPECT_EQ(p1.text(), p2.text());
}

TEST(Parser, SourceLinesMapToTheirPart)
{
    const std::string stub = "        .text\n        NOP\n";
    const std::string body = "        NOP\n        BOGUS R4\n";
    std::string message;
    try {
        parse(stub + body);
    } catch (const support::FatalError &e) {
        message = e.what();
    }
    EXPECT_EQ(message, "fatal: line 4: unknown mnemonic 'BOGUS'");
    // An empty part holds no line; a "line" without a number stays.
    EXPECT_EQ(masm::mapSourceLines(
                  message + " (line of code, line 2)",
                  {{"<startup>", stub}, {"bad.s", body}, {"<lib>", ""}}),
              "fatal: bad.s:2: unknown mnemonic 'BOGUS' (line of code, "
              "<startup>:2)");
}

} // namespace
