/**
 * @file
 * Lexer unit tests.
 */

#include <gtest/gtest.h>

#include "masm/lexer.hh"
#include "support/logging.hh"

namespace {

using namespace swapram;
using masm::TokKind;

/** The tokens of one line; their text stays valid until the next
 *  call. */
std::vector<masm::Token>
lexLine(std::string_view text, int line)
{
    static thread_local masm::Lexer lexer;
    return lexer.lex(text, line);
}

TEST(Lexer, BasicInstructionLine)
{
    auto toks = lexLine("loop:   MOV #0x10, R5   ; comment", 1);
    ASSERT_EQ(toks.size(), 8u); // loop : MOV # 0x10 , R5 END
    EXPECT_EQ(toks[0].kind, TokKind::Ident);
    EXPECT_EQ(toks[0].text, "loop");
    EXPECT_TRUE(toks[1].isPunct(":"));
    EXPECT_EQ(toks[2].text, "MOV");
    EXPECT_TRUE(toks[3].isPunct("#"));
    EXPECT_EQ(toks[4].kind, TokKind::Number);
    EXPECT_EQ(toks[4].number, 0x10);
    EXPECT_TRUE(toks[5].isPunct(","));
    EXPECT_EQ(toks[6].text, "R5");
    EXPECT_EQ(toks[7].kind, TokKind::End);
}

TEST(Lexer, NumberFormats)
{
    auto toks = lexLine("1234 0xABCD 0b1010 'A' '\\n'", 1);
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[0].number, 1234);
    EXPECT_EQ(toks[1].number, 0xABCD);
    EXPECT_EQ(toks[2].number, 10);
    EXPECT_EQ(toks[3].number, 'A');
    EXPECT_EQ(toks[4].number, '\n');
}

TEST(Lexer, Strings)
{
    auto toks = lexLine(".asciz \"hi\\tthere\\0\"", 1);
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0].text, ".asciz");
    EXPECT_EQ(toks[1].kind, TokKind::String);
    EXPECT_EQ(toks[1].text, std::string("hi\tthere\0", 9));
}

TEST(Lexer, ShiftOperators)
{
    auto toks = lexLine("1<<4 8>>2", 1);
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_TRUE(toks[1].isPunct("<<"));
    EXPECT_TRUE(toks[4].isPunct(">>"));
}

TEST(Lexer, IndirectAndIndexed)
{
    auto toks = lexLine("MOV @R4+, 2(R5)", 1);
    // MOV @ R4 + , 2 ( R5 ) END
    ASSERT_EQ(toks.size(), 10u);
    EXPECT_TRUE(toks[1].isPunct("@"));
    EXPECT_TRUE(toks[3].isPunct("+"));
    EXPECT_TRUE(toks[6].isPunct("("));
    EXPECT_TRUE(toks[8].isPunct(")"));
}

TEST(Lexer, Errors)
{
    EXPECT_THROW(lexLine("0xZZ", 1), support::FatalError);
    EXPECT_THROW(lexLine("\"unterminated", 1), support::FatalError);
    EXPECT_THROW(lexLine("'a", 1), support::FatalError);
    EXPECT_THROW(lexLine("12abc", 1), support::FatalError);
    EXPECT_THROW(lexLine("MOV ?", 1), support::FatalError);
}

TEST(Lexer, CommentOnly)
{
    auto toks = lexLine("   ; nothing here", 7);
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_EQ(toks[0].kind, TokKind::End);
}

} // namespace
