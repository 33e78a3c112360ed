/**
 * @file
 * ISA round-trip property test (ISSUE 2 satellite): for every opcode x
 * addressing-mode row, encode -> disasm -> reparse -> reassemble must
 * reproduce the original words exactly. This pins the disassembler's
 * "text form compatible with the masm parser" contract that the
 * binary re-import flow (masm/reimport.cc) depends on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/disasm.hh"
#include "isa/encode.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"

namespace {

using namespace swapram;
using isa::Instr;
using isa::Mode;
using isa::Op;
using isa::Operand;
using isa::Reg;

/** Every instruction is placed at the default text base so symbolic
 *  (PC-relative) extension words and jump offsets line up between the
 *  direct encoding and the reassembled image. */
constexpr std::uint16_t kAddr = 0x8000;

std::vector<std::uint16_t>
reassemble(const std::string &text)
{
    std::string source = "        .text\n        " + text + "\n";
    auto assembled = masm::assemble(masm::parse(source), {});
    std::vector<std::uint16_t> words;
    for (const masm::Chunk &chunk : assembled.image.chunks) {
        if (chunk.base != kAddr)
            continue;
        for (std::size_t i = 0; i + 1 < chunk.bytes.size(); i += 2) {
            std::uint16_t lo = chunk.bytes[i];
            std::uint16_t hi = chunk.bytes[i + 1];
            words.push_back(static_cast<std::uint16_t>(lo | (hi << 8)));
        }
    }
    return words;
}

void
expectRoundTrip(const Instr &instr)
{
    std::uint16_t words[isa::kMaxInstrWords];
    const int n = isa::encode(instr, kAddr, words);
    std::vector<std::uint16_t> direct(words, words + n);
    std::string text = isa::disasm(instr);
    std::vector<std::uint16_t> rebuilt = reassemble(text);
    EXPECT_EQ(direct, rebuilt) << "round trip of '" << text << "'";
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

/** Source-operand samples covering all seven modes, the constant
 *  generator values, and a plain extension-word immediate. */
std::vector<Operand>
srcSamples(bool byte_op)
{
    std::vector<Operand> ops = {
        Operand::makeReg(Reg::R7),
        Operand::makeReg(Reg::SP),
        Operand::makeIndexed(Reg::R6, 0x0010),
        Operand::makeSymbolic(0x9ABC),
        Operand::makeAbs(0x2222),
        Operand::makeIndirect(Reg::R9, false),
        Operand::makeIndirect(Reg::R10, true),
        Operand::makeImm(0),      // CG: R3/As=00
        Operand::makeImm(1),      // CG: R3/As=01
        Operand::makeImm(2),      // CG: R3/As=10
        Operand::makeImm(4),      // CG: SR/As=10
        Operand::makeImm(8),      // CG: SR/As=11
        Operand::makeImm(0xFFFF), // CG: R3/As=11
    };
    // A non-CG immediate needs an extension word; keep it a byte-range
    // value when the operation is .B so the operand stays well-formed.
    ops.push_back(Operand::makeImm(byte_op ? 0x003F : 0x1234));
    if (byte_op)
        ops.push_back(Operand::makeImm(0xFF)); // CG only for byte ops
    return ops;
}

/** Destination samples: the four legal destination modes. */
std::vector<Operand>
dstSamples()
{
    return {
        Operand::makeReg(Reg::R12),
        Operand::makeIndexed(Reg::R5, 0x0008),
        Operand::makeSymbolic(0x8888),
        Operand::makeAbs(0x2004),
    };
}

TEST(IsaRoundTrip, DoubleOperandAllModes)
{
    const Op ops[] = {Op::Mov, Op::Add, Op::Addc, Op::Subc,
                      Op::Sub, Op::Cmp, Op::Dadd, Op::Bit,
                      Op::Bic, Op::Bis, Op::Xor,  Op::And};
    for (Op op : ops)
        for (const Operand &src : srcSamples(false))
            for (const Operand &dst : dstSamples())
                expectRoundTrip(fmt1(op, src, dst));
}

TEST(IsaRoundTrip, DoubleOperandByteForms)
{
    const Op ops[] = {Op::Mov, Op::Add, Op::Addc, Op::Subc,
                      Op::Sub, Op::Cmp, Op::Dadd, Op::Bit,
                      Op::Bic, Op::Bis, Op::Xor,  Op::And};
    for (Op op : ops) {
        if (!isa::supportsByte(op))
            continue;
        for (const Operand &src : srcSamples(true))
            for (const Operand &dst : dstSamples())
                expectRoundTrip(fmt1(op, src, dst, true));
    }
}

TEST(IsaRoundTrip, SingleOperandAllModes)
{
    const Op ops[] = {Op::Rrc, Op::Swpb, Op::Rra,
                      Op::Sxt, Op::Push, Op::Call};
    for (Op op : ops) {
        std::vector<Operand> dsts = {
            Operand::makeReg(Reg::R11),
            Operand::makeIndexed(Reg::R8, 0x0006),
            Operand::makeSymbolic(0x8100),
            Operand::makeAbs(0x2008),
            Operand::makeIndirect(Reg::R13, false),
            Operand::makeIndirect(Reg::R14, true),
        };
        if (op == Op::Push || op == Op::Call) {
            dsts.push_back(Operand::makeImm(0x1234));
            dsts.push_back(Operand::makeImm(4)); // CG form
        }
        for (const Operand &dst : dsts) {
            expectRoundTrip(fmt2(op, dst));
            if (isa::supportsByte(op) && dst.mode != Mode::Immediate)
                expectRoundTrip(fmt2(op, dst, true));
        }
    }
}

TEST(IsaRoundTrip, Reti)
{
    Instr i;
    i.op = Op::Reti;
    expectRoundTrip(i);
}

TEST(IsaRoundTrip, JumpsAcrossTheirFullRange)
{
    const Op ops[] = {Op::Jne, Op::Jeq, Op::Jnc, Op::Jc,
                      Op::Jn,  Op::Jge, Op::Jl,  Op::Jmp};
    // Extremes and interior points of the +/-512-word reach.
    const std::uint16_t targets[] = {
        static_cast<std::uint16_t>(kAddr + isa::kJumpMaxBackward),
        kAddr - 0x0100, kAddr, kAddr + 2, kAddr + 0x0200,
        static_cast<std::uint16_t>(kAddr + isa::kJumpMaxForward)};
    for (Op op : ops) {
        for (std::uint16_t target : targets) {
            Instr i;
            i.op = op;
            i.jump_target = target;
            expectRoundTrip(i);
        }
    }
}

} // namespace
