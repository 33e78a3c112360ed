/**
 * @file
 * Encoder/decoder unit tests: known MSP430 encodings from the family
 * user's guide, plus an exhaustive-ish roundtrip property sweep.
 */

#include <gtest/gtest.h>

#include "isa/decode.hh"
#include "isa/disasm.hh"
#include "isa/encode.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace {

using namespace swapram;
using isa::Instr;
using isa::Mode;
using isa::Op;
using isa::Operand;
using isa::Reg;

std::vector<std::uint16_t>
enc(const Instr &instr, std::uint16_t addr = 0x8000)
{
    std::uint16_t words[isa::kMaxInstrWords];
    const int n = isa::encode(instr, addr, words);
    return {words, words + n};
}

Instr
fmt1(Op op, Operand src, Operand dst, bool byte = false)
{
    Instr i;
    i.op = op;
    i.byte = byte;
    i.src = src;
    i.dst = dst;
    return i;
}

Instr
fmt2(Op op, Operand dst, bool byte = false)
{
    Instr i;
    i.op = op;
    i.byte = byte;
    i.dst = dst;
    return i;
}

TEST(Encode, KnownWords)
{
    // MOV #0x1234, R15 -> 0x403F 0x1234
    auto w = enc(fmt1(Op::Mov, Operand::makeImm(0x1234),
                      Operand::makeReg(Reg::R15)));
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], 0x403F);
    EXPECT_EQ(w[1], 0x1234);

    // RET == MOV @SP+, PC -> 0x4130
    w = enc(fmt1(Op::Mov, Operand::makeIndirect(Reg::SP, true),
                 Operand::makeReg(Reg::PC)));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x4130);

    // NOP == MOV #0, R3 -> 0x4303
    w = enc(fmt1(Op::Mov, Operand::makeImm(0),
                 Operand::makeReg(Reg::CG2)));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x4303);

    // ADD R5, R6 -> 0x5506
    w = enc(fmt1(Op::Add, Operand::makeReg(Reg::R5),
                 Operand::makeReg(Reg::R6)));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x5506);

    // CLRC == BIC #1, SR -> 0xC312
    w = enc(fmt1(Op::Bic, Operand::makeImm(1), Operand::makeReg(Reg::SR)));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0xC312);

    // EINT == BIS #8, SR -> 0xD232
    w = enc(fmt1(Op::Bis, Operand::makeImm(8), Operand::makeReg(Reg::SR)));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0xD232);

    // MOV.B #-1, R5 -> 0x4375 (constant generator -1, byte)
    w = enc(fmt1(Op::Mov, Operand::makeImm(0xFF),
                 Operand::makeReg(Reg::R5), true));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x4375);

    // PUSH R10 -> 0x120A
    w = enc(fmt2(Op::Push, Operand::makeReg(Reg::R10)));
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x120A);

    // CALL #0x9000 -> 0x12B0 0x9000
    w = enc(fmt2(Op::Call, Operand::makeImm(0x9000, true)));
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], 0x12B0);
    EXPECT_EQ(w[1], 0x9000);

    // RETI -> 0x1300
    Instr reti;
    reti.op = Op::Reti;
    w = enc(reti);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x1300);

    // SWPB R5 -> 0x1085, RRA R5 -> 0x1105, SXT R5 -> 0x1185
    EXPECT_EQ(enc(fmt2(Op::Swpb, Operand::makeReg(Reg::R5)))[0], 0x1085);
    EXPECT_EQ(enc(fmt2(Op::Rra, Operand::makeReg(Reg::R5)))[0], 0x1105);
    EXPECT_EQ(enc(fmt2(Op::Sxt, Operand::makeReg(Reg::R5)))[0], 0x1185);
}

TEST(Encode, JumpOffsets)
{
    Instr j;
    j.op = Op::Jmp;
    j.jump_target = 0x8002; // offset 0 words
    auto w = enc(j, 0x8000);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0x3C00);

    j.jump_target = 0x8000; // self-loop: offset -1
    w = enc(j, 0x8000);
    EXPECT_EQ(w[0], 0x3FFF);

    j.op = Op::Jne;
    j.jump_target = 0x8010; // offset +7
    w = enc(j, 0x8000);
    EXPECT_EQ(w[0], 0x2007);

    // Extreme ranges.
    j.op = Op::Jmp;
    j.jump_target = static_cast<std::uint16_t>(0x8000 + 2 + 2 * 511);
    EXPECT_NO_THROW(enc(j, 0x8000));
    j.jump_target = static_cast<std::uint16_t>(0x8000 + 2 - 2 * 512);
    EXPECT_NO_THROW(enc(j, 0x8000));
    j.jump_target = static_cast<std::uint16_t>(0x8000 + 2 + 2 * 512);
    EXPECT_THROW(enc(j, 0x8000), support::FatalError);
}

TEST(Encode, ConstantGenerator)
{
    for (std::uint16_t v : {0, 1, 2, 4, 8}) {
        auto w = enc(fmt1(Op::Mov, Operand::makeImm(v),
                          Operand::makeReg(Reg::R5)));
        EXPECT_EQ(w.size(), 1u) << "value " << v;
    }
    auto w = enc(fmt1(Op::Mov, Operand::makeImm(0xFFFF),
                      Operand::makeReg(Reg::R5)));
    EXPECT_EQ(w.size(), 1u);
    // Non-CG immediate needs an extension word.
    w = enc(fmt1(Op::Mov, Operand::makeImm(3), Operand::makeReg(Reg::R5)));
    EXPECT_EQ(w.size(), 2u);
    // force_ext defeats the constant generator.
    w = enc(fmt1(Op::Mov, Operand::makeImm(1, true),
                 Operand::makeReg(Reg::R5)));
    EXPECT_EQ(w.size(), 2u);
    EXPECT_EQ(w[1], 1);
}

TEST(Encode, SymbolicIsPcRelative)
{
    // MOV 0x9000, R5 assembled at 0x8000: ext word at 0x8002 holds
    // 0x9000 - 0x8002.
    auto w = enc(fmt1(Op::Mov, Operand::makeSymbolic(0x9000),
                      Operand::makeReg(Reg::R5)),
                 0x8000);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[1], static_cast<std::uint16_t>(0x9000 - 0x8002));
    // And decodes back to the same absolute EA.
    auto dec = isa::decodeAt(w.data(), 0x8000);
    EXPECT_EQ(dec.instr.src.mode, Mode::Symbolic);
    EXPECT_EQ(dec.instr.src.value, 0x9000);
}

TEST(Encode, SizeMatchesEncode)
{
    std::vector<Instr> cases = {
        fmt1(Op::Mov, Operand::makeReg(Reg::R5), Operand::makeReg(Reg::R6)),
        fmt1(Op::Add, Operand::makeImm(100), Operand::makeAbs(0x2000)),
        fmt1(Op::Xor, Operand::makeIndexed(Reg::R7, 4),
             Operand::makeIndexed(Reg::R8, 6)),
        fmt2(Op::Push, Operand::makeImm(0x1234, true)),
        fmt2(Op::Call, Operand::makeAbs(0x8100)),
    };
    for (const Instr &i : cases) {
        EXPECT_EQ(isa::encodedSize(i), 2 * enc(i).size())
            << isa::disasm(i);
    }
}

/** Random instruction generator for the roundtrip property. */
isa::Instr
randomInstr(support::Rng &rng)
{
    static const Op kOps[] = {
        Op::Mov, Op::Add, Op::Addc, Op::Subc, Op::Sub, Op::Cmp,
        Op::Dadd, Op::Bit, Op::Bic, Op::Bis, Op::Xor, Op::And,
        Op::Rrc, Op::Swpb, Op::Rra, Op::Sxt, Op::Push, Op::Call,
        Op::Jne, Op::Jeq, Op::Jnc, Op::Jc, Op::Jn, Op::Jge, Op::Jl,
        Op::Jmp,
    };
    auto random_reg = [&](bool allow_special) {
        while (true) {
            Reg r = isa::regFromIndex(static_cast<std::uint8_t>(
                rng.below(16)));
            if (!allow_special &&
                (r == Reg::PC || r == Reg::SR || r == Reg::CG2)) {
                continue;
            }
            if (r == Reg::CG2)
                continue;
            return r;
        }
    };
    auto random_src = [&]() -> Operand {
        switch (rng.below(7)) {
          case 0: return Operand::makeReg(random_reg(false));
          case 1: return Operand::makeIndexed(random_reg(false),
                                              rng.word());
          case 2: return Operand::makeSymbolic(rng.word() & 0xFFFE);
          case 3: return Operand::makeAbs(rng.word());
          case 4: return Operand::makeIndirect(random_reg(false),
                                               false);
          case 5: return Operand::makeIndirect(random_reg(false), true);
          default: return Operand::makeImm(rng.word(), true);
        }
    };
    auto random_dst = [&]() -> Operand {
        switch (rng.below(4)) {
          case 0: return Operand::makeReg(random_reg(false));
          case 1: return Operand::makeIndexed(random_reg(false),
                                              rng.word());
          case 2: return Operand::makeSymbolic(rng.word() & 0xFFFE);
          default: return Operand::makeAbs(rng.word());
        }
    };

    Instr i;
    i.op = kOps[rng.below(sizeof(kOps) / sizeof(kOps[0]))];
    switch (isa::opFormat(i.op)) {
      case isa::OpFormat::Jump:
        i.jump_target = static_cast<std::uint16_t>(
            0x8000 + 2 + 2 * (static_cast<int>(rng.below(1024)) - 512));
        break;
      case isa::OpFormat::SingleOperand:
        i.byte = isa::supportsByte(i.op) && rng.below(2);
        i.dst = (i.op == Op::Push || i.op == Op::Call) ? random_src()
                                                       : random_dst();
        if (i.op == Op::Call)
            i.byte = false;
        // PUSH/CALL of symbolic/indexed are fine; RRA-class cannot take
        // immediates (random_dst never produces them).
        break;
      case isa::OpFormat::DoubleOperand:
        i.byte = rng.below(2) != 0;
        i.src = random_src();
        i.dst = random_dst();
        break;
    }
    return i;
}

TEST(Encode, RoundTripProperty)
{
    support::Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 20000; ++trial) {
        Instr instr = randomInstr(rng);
        auto words = enc(instr, 0x8000);
        ASSERT_LE(words.size(), 3u);
        auto dec = isa::decodeAt(words.data(), 0x8000);
        auto words2 = enc(dec.instr, 0x8000);
        ASSERT_EQ(words, words2)
            << "instr " << isa::disasm(instr) << " redecoded as "
            << isa::disasm(dec.instr);
        EXPECT_EQ(dec.size_bytes, 2 * words.size());
    }
}

TEST(Decode, RejectsInvalidOpcodes)
{
    // 0x0000 and format-II sub-opcode 7 are invalid.
    EXPECT_THROW(isa::decodeShape(0x0000), support::FatalError);
    EXPECT_THROW(isa::decodeShape(0x1380), support::FatalError);
}

} // namespace
