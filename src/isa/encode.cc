#include "isa/encode.hh"

#include "support/logging.hh"

namespace swapram::isa {

namespace {

/** Source-operand field encoding: As bits and register number. */
struct SrcFields {
    std::uint8_t as;
    std::uint8_t reg;
    bool has_ext;
    std::uint16_t ext; // raw, before symbolic adjustment
    bool symbolic;     // ext holds an absolute EA to relativize
};

bool
needsExtWord(const Operand &op, bool byte_op)
{
    if (!modeNeedsExtWord(op.mode))
        return false;
    if (op.mode == Mode::Immediate && !op.force_ext &&
        cgEligible(op.value, byte_op)) {
        return false;
    }
    return true;
}

SrcFields
encodeSrc(const Operand &op, bool byte_op)
{
    switch (op.mode) {
      case Mode::Register:
        if (op.reg == Reg::CG2)
            support::fatal("encode: R3 is not usable as a plain register");
        return {0, regIndex(op.reg), false, 0, false};
      case Mode::Indexed:
        if (op.reg == Reg::SR || op.reg == Reg::CG2 || op.reg == Reg::PC)
            support::fatal("encode: X(Rn) requires R4..R15 or SP");
        return {1, regIndex(op.reg), true, op.value, false};
      case Mode::Symbolic:
        return {1, regIndex(Reg::PC), true, op.value, true};
      case Mode::Absolute:
        return {1, regIndex(Reg::SR), true, op.value, false};
      case Mode::Indirect:
        if (op.reg == Reg::SR || op.reg == Reg::CG2)
            support::fatal("encode: @Rn requires a general register");
        return {2, regIndex(op.reg), false, 0, false};
      case Mode::IndirectInc:
        if (op.reg == Reg::SR || op.reg == Reg::CG2)
            support::fatal("encode: @Rn+ requires a general register");
        return {3, regIndex(op.reg), false, 0, false};
      case Mode::Immediate:
        if (!op.force_ext && cgEligible(op.value, byte_op)) {
            std::uint16_t v = op.value;
            if (byte_op && v == 0xFF)
                v = 0xFFFF;
            switch (v) {
              case 0: return {0, regIndex(Reg::CG2), false, 0, false};
              case 1: return {1, regIndex(Reg::CG2), false, 0, false};
              case 2: return {2, regIndex(Reg::CG2), false, 0, false};
              case 0xFFFF: return {3, regIndex(Reg::CG2), false, 0, false};
              case 4: return {2, regIndex(Reg::SR), false, 0, false};
              case 8: return {3, regIndex(Reg::SR), false, 0, false};
              default:
                support::panic("encode: bad CG value");
            }
        }
        return {3, regIndex(Reg::PC), true, op.value, false};
    }
    support::panic("encode: bad source mode");
}

/** Destination-operand fields: Ad bit and register. */
struct DstFields {
    std::uint8_t ad;
    std::uint8_t reg;
    bool has_ext;
    std::uint16_t ext;
    bool symbolic;
};

DstFields
encodeDst(const Operand &op)
{
    switch (op.mode) {
      case Mode::Register:
        // R3 is allowed as destination (writes are discarded); NOP is
        // encoded as MOV #0, R3.
        return {0, regIndex(op.reg), false, 0, false};
      case Mode::Indexed:
        if (op.reg == Reg::SR || op.reg == Reg::CG2 || op.reg == Reg::PC)
            support::fatal("encode: X(Rn) dst requires R4..R15 or SP");
        return {1, regIndex(op.reg), true, op.value, false};
      case Mode::Symbolic:
        return {1, regIndex(Reg::PC), true, op.value, true};
      case Mode::Absolute:
        return {1, regIndex(Reg::SR), true, op.value, false};
      default:
        support::fatal("encode: invalid destination addressing mode");
    }
}

} // namespace

bool
cgEligible(std::uint16_t value, bool byte_op)
{
    switch (value) {
      case 0:
      case 1:
      case 2:
      case 4:
      case 8:
      case 0xFFFF:
        return true;
      case 0xFF:
        return byte_op;
      default:
        return false;
    }
}

bool
jumpInRange(std::uint16_t addr, std::uint16_t target)
{
    int offset_bytes = static_cast<int>(target) - static_cast<int>(addr) - 2;
    if (offset_bytes & 1)
        support::fatal("jump target must be word aligned");
    int offset_words = offset_bytes / 2;
    return offset_words >= -512 && offset_words <= 511;
}

std::uint16_t
encodedSize(const Instr &instr)
{
    switch (opFormat(instr.op)) {
      case OpFormat::Jump:
        return 2;
      case OpFormat::SingleOperand:
        if (instr.op == Op::Reti)
            return 2;
        return 2 + (needsExtWord(instr.dst, instr.byte) ? 2 : 0);
      case OpFormat::DoubleOperand:
        return 2 + (needsExtWord(instr.src, instr.byte) ? 2 : 0) +
               (needsExtWord(instr.dst, instr.byte) ? 2 : 0);
    }
    support::panic("encodedSize: bad format");
}

int
encode(const Instr &instr, std::uint16_t addr,
       std::uint16_t (&words)[kMaxInstrWords])
{
    int n = 0;
    const bool byte_op = instr.byte;
    if (byte_op && !supportsByte(instr.op))
        support::fatal("encode: ", opMnemonic(instr.op), " has no .B form");

    switch (opFormat(instr.op)) {
      case OpFormat::Jump: {
        int offset_bytes =
            static_cast<int>(instr.jump_target) - static_cast<int>(addr) - 2;
        int offset_words = offset_bytes / 2;
        if (!jumpInRange(addr, instr.jump_target)) {
            support::fatal("encode: jump out of range at ", addr, " -> ",
                           instr.jump_target);
        }
        std::uint16_t w = 0x2000;
        w |= static_cast<std::uint16_t>(jumpCondition(instr.op)) << 10;
        w |= static_cast<std::uint16_t>(offset_words) & 0x3FF;
        words[n++] = w;
        return n;
      }
      case OpFormat::SingleOperand: {
        std::uint16_t sub =
            static_cast<std::uint16_t>(instr.op) - 0x10;
        std::uint16_t w = 0x1000 | (sub << 7) |
                          (byte_op ? 0x0040 : 0);
        if (instr.op == Op::Reti) {
            words[n++] = w;
            return n;
        }
        if (instr.dst.mode == Mode::Immediate && instr.op != Op::Push &&
            instr.op != Op::Call) {
            support::fatal("encode: immediate operand only for PUSH/CALL");
        }
        SrcFields f = encodeSrc(instr.dst, byte_op);
        w |= static_cast<std::uint16_t>(f.as) << 4;
        w |= f.reg;
        words[n++] = w;
        if (f.has_ext) {
            std::uint16_t ext_addr = static_cast<std::uint16_t>(addr + 2);
            std::uint16_t ext = f.symbolic
                ? static_cast<std::uint16_t>(f.ext - ext_addr)
                : f.ext;
            words[n++] = ext;
        }
        return n;
      }
      case OpFormat::DoubleOperand: {
        SrcFields s = encodeSrc(instr.src, byte_op);
        DstFields d = encodeDst(instr.dst);
        std::uint16_t w =
            static_cast<std::uint16_t>(static_cast<std::uint16_t>(instr.op)
                                       << 12);
        w |= static_cast<std::uint16_t>(s.reg) << 8;
        w |= static_cast<std::uint16_t>(d.ad) << 7;
        w |= byte_op ? 0x0040 : 0;
        w |= static_cast<std::uint16_t>(s.as) << 4;
        w |= d.reg;
        words[n++] = w;
        std::uint16_t next_ext_addr = static_cast<std::uint16_t>(addr + 2);
        if (s.has_ext) {
            std::uint16_t ext = s.symbolic
                ? static_cast<std::uint16_t>(s.ext - next_ext_addr)
                : s.ext;
            words[n++] = ext;
            next_ext_addr = static_cast<std::uint16_t>(next_ext_addr + 2);
        }
        if (d.has_ext) {
            std::uint16_t ext = d.symbolic
                ? static_cast<std::uint16_t>(d.ext - next_ext_addr)
                : d.ext;
            words[n++] = ext;
        }
        return n;
      }
    }
    support::panic("encode: bad format");
}

} // namespace swapram::isa
