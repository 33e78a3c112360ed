#include "isa/disasm.hh"

#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::isa {

std::string
operandText(const Operand &op)
{
    using support::hex16;
    // Built by appending: GCC 12 warns (-Wrestrict) on
    // "literal" + std::string&&, which inserts at the front.
    std::string out;
    switch (op.mode) {
      case Mode::Register:
        return regName(op.reg);
      case Mode::Indexed:
        out = hex16(op.value);
        out += '(';
        out += regName(op.reg);
        out += ')';
        return out;
      case Mode::Symbolic:
        return hex16(op.value);
      case Mode::Absolute:
        out = "&";
        out += hex16(op.value);
        return out;
      case Mode::Indirect:
        out = "@";
        out += regName(op.reg);
        return out;
      case Mode::IndirectInc:
        out = "@";
        out += regName(op.reg);
        out += '+';
        return out;
      case Mode::Immediate:
        out = "#";
        out += hex16(op.value);
        return out;
    }
    support::panic("operandText: bad mode");
}

std::string
disasm(const Instr &instr)
{
    std::string text = opMnemonic(instr.op);
    if (instr.byte)
        text += ".B";
    switch (opFormat(instr.op)) {
      case OpFormat::Jump:
        return text + " " + support::hex16(instr.jump_target);
      case OpFormat::SingleOperand:
        if (instr.op == Op::Reti)
            return text;
        return text + " " + operandText(instr.dst);
      case OpFormat::DoubleOperand:
        return text + " " + operandText(instr.src) + ", " +
               operandText(instr.dst);
    }
    support::panic("disasm: bad format");
}

} // namespace swapram::isa
