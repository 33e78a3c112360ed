#include "isa/opcodes.hh"

#include "support/logging.hh"

namespace swapram::isa {

OpFormat
opFormat(Op op)
{
    auto value = static_cast<std::uint8_t>(op);
    if (value >= 0x4 && value <= 0xF)
        return OpFormat::DoubleOperand;
    if (value >= 0x10 && value <= 0x16)
        return OpFormat::SingleOperand;
    if (value >= 0x20 && value <= 0x27)
        return OpFormat::Jump;
    support::panic("opFormat: bad opcode value ", int(value));
}

std::string
opMnemonic(Op op)
{
    switch (op) {
      case Op::Mov: return "MOV";
      case Op::Add: return "ADD";
      case Op::Addc: return "ADDC";
      case Op::Subc: return "SUBC";
      case Op::Sub: return "SUB";
      case Op::Cmp: return "CMP";
      case Op::Dadd: return "DADD";
      case Op::Bit: return "BIT";
      case Op::Bic: return "BIC";
      case Op::Bis: return "BIS";
      case Op::Xor: return "XOR";
      case Op::And: return "AND";
      case Op::Rrc: return "RRC";
      case Op::Swpb: return "SWPB";
      case Op::Rra: return "RRA";
      case Op::Sxt: return "SXT";
      case Op::Push: return "PUSH";
      case Op::Call: return "CALL";
      case Op::Reti: return "RETI";
      case Op::Jne: return "JNE";
      case Op::Jeq: return "JEQ";
      case Op::Jnc: return "JNC";
      case Op::Jc: return "JC";
      case Op::Jn: return "JN";
      case Op::Jge: return "JGE";
      case Op::Jl: return "JL";
      case Op::Jmp: return "JMP";
    }
    support::panic("opMnemonic: bad opcode");
}

bool
supportsByte(Op op)
{
    switch (opFormat(op)) {
      case OpFormat::DoubleOperand:
        return true;
      case OpFormat::SingleOperand:
        return op == Op::Rrc || op == Op::Rra || op == Op::Push;
      case OpFormat::Jump:
        return false;
    }
    return false;
}

bool
isCompareOnly(Op op)
{
    return op == Op::Cmp || op == Op::Bit;
}

bool
preservesFlags(Op op)
{
    return op == Op::Mov || op == Op::Bic || op == Op::Bis;
}

std::uint8_t
jumpCondition(Op op)
{
    if (opFormat(op) != OpFormat::Jump)
        support::panic("jumpCondition: not a jump: ", opMnemonic(op));
    return static_cast<std::uint8_t>(op) & 0x7;
}

Op
jumpFromCondition(std::uint8_t condition)
{
    if (condition > 7)
        support::panic("jumpFromCondition: bad condition ", int(condition));
    return static_cast<Op>(0x20 | condition);
}

} // namespace swapram::isa
