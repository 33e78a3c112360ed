#include "isa/registers.hh"

namespace swapram::isa {

std::string
regName(Reg r)
{
    switch (r) {
      case Reg::PC: return "PC";
      case Reg::SP: return "SP";
      case Reg::SR: return "SR";
      default: {
        std::string name = "R"; // appended: see -Wrestrict in disasm.cc
        name += std::to_string(regIndex(r));
        return name;
      }
    }
}

std::optional<Reg>
parseReg(std::string_view name)
{
    // Called for every identifier operand the parser meets, so it
    // compares in place instead of building an upper-case copy.
    auto upper = [](char c) {
        return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
    };
    auto is = [&](std::string_view want) {
        if (name.size() != want.size())
            return false;
        for (size_t i = 0; i < name.size(); ++i) {
            if (upper(name[i]) != want[i])
                return false;
        }
        return true;
    };
    if (is("PC")) return Reg::PC;
    if (is("SP")) return Reg::SP;
    if (is("SR")) return Reg::SR;
    if (is("CG2")) return Reg::CG2;
    if (name.size() >= 2 && upper(name[0]) == 'R') {
        int index = 0;
        for (size_t i = 1; i < name.size(); ++i) {
            if (name[i] < '0' || name[i] > '9')
                return std::nullopt;
            if (index < kNumRegs) // larger stays out of range
                index = index * 10 + (name[i] - '0');
        }
        if (index < kNumRegs)
            return regFromIndex(static_cast<std::uint8_t>(index));
    }
    return std::nullopt;
}

} // namespace swapram::isa
