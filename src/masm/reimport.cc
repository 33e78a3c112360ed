#include "masm/reimport.hh"

#include <map>
#include <set>

#include "isa/decode.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::masm {

namespace {

/** Read one word from the image's chunks. */
std::uint16_t
readWord(const Image &image, std::uint16_t addr)
{
    for (const Chunk &chunk : image.chunks) {
        if (addr >= chunk.base &&
            static_cast<std::size_t>(addr - chunk.base) + 1 <
                chunk.bytes.size()) {
            std::size_t off = addr - chunk.base;
            return static_cast<std::uint16_t>(
                chunk.bytes[off] | (chunk.bytes[off + 1] << 8));
        }
    }
    support::fatal("reimport: address ", support::hex16(addr),
                   " not in any image chunk");
}

std::string
labelFor(std::uint16_t addr)
{
    return "L_" + std::to_string(addr);
}

/** Convert a numeric operand back to symbolic form. */
AsmOperand
liftOperand(const isa::Operand &op, std::uint16_t fbegin,
            std::uint32_t fend,
            const std::map<std::uint16_t, std::string> &addr_syms)
{
    auto lift_value = [&](std::uint16_t value) -> Expr {
        if (value >= fbegin && value < fend)
            return Expr::sym(labelFor(value));
        auto it = addr_syms.find(value);
        if (it != addr_syms.end())
            return Expr::sym(it->second);
        return Expr::num(value);
    };
    switch (op.mode) {
      case isa::Mode::Register:
        return AsmOperand::reg_(op.reg);
      case isa::Mode::Indexed:
        // The index may be a plain offset (stays numeric) or a table
        // base like `tbl(R14)` — lift it when it matches a symbol.
        return AsmOperand::indexed(op.reg, lift_value(op.value));
      case isa::Mode::Symbolic:
        // PC-relative data reference: lift to absolute so the code is
        // relocatable (what SwapRAM's pass would do anyway).
        return AsmOperand::abs(lift_value(op.value));
      case isa::Mode::Absolute:
        return AsmOperand::abs(lift_value(op.value));
      case isa::Mode::Indirect:
        return AsmOperand::indirect(op.reg, false);
      case isa::Mode::IndirectInc:
        return AsmOperand::indirect(op.reg, true);
      case isa::Mode::Immediate:
        return AsmOperand::imm(lift_value(op.value));
    }
    support::panic("liftOperand: bad mode");
}

} // namespace

Program
reimportFunction(
    const Image &image, const FunctionInfo &info,
    const std::unordered_map<std::uint16_t, std::string> &func_names)
{
    const std::uint16_t fbegin = info.addr;
    const std::uint32_t fend = info.addr + info.size;

    // Pass 1: decode everything; gather intra-function branch targets.
    std::vector<std::pair<std::uint16_t, isa::Instr>> instrs;
    std::set<std::uint16_t> targets;
    std::uint16_t addr = fbegin;
    while (addr < fend) {
        std::uint16_t words[3] = {readWord(image, addr), 0, 0};
        isa::Shape shape = isa::decodeShape(words[0]);
        for (int w = 0; w < shape.totalExt(); ++w) {
            words[w + 1] =
                readWord(image, static_cast<std::uint16_t>(addr + 2 * (w + 1)));
        }
        isa::Decoded d = isa::decodeAt(words, addr);
        const isa::Instr &instr = d.instr;
        if (isa::opFormat(instr.op) == isa::OpFormat::Jump) {
            if (instr.jump_target >= fbegin && instr.jump_target < fend)
                targets.insert(instr.jump_target);
            else
                support::fatal("reimport: jump out of function at ",
                               support::hex16(addr));
        }
        // Absolute branch MOV #imm, PC: an intra-function target.
        if (instr.op == isa::Op::Mov &&
            instr.dst.mode == isa::Mode::Register &&
            instr.dst.reg == isa::Reg::PC &&
            instr.src.mode == isa::Mode::Immediate &&
            instr.src.value >= fbegin && instr.src.value < fend) {
            targets.insert(instr.src.value);
        }
        instrs.push_back({addr, instr});
        addr = static_cast<std::uint16_t>(addr + d.size_bytes);
    }

    // Symbol map for lifting call targets and data addresses.
    std::map<std::uint16_t, std::string> addr_syms;
    for (const auto &[faddr, name] : func_names)
        addr_syms[faddr] = name;

    // Pass 2: emit statements.
    Program out;
    Statement func = Statement::makeDirective(Directive::Func);
    func.name = Symbol(info.name);
    out.stmts.push_back(std::move(func));
    for (const auto &[iaddr, instr] : instrs) {
        if (targets.count(iaddr))
            out.stmts.push_back(Statement::makeLabel(labelFor(iaddr)));
        AsmInstr ai;
        ai.op = instr.op;
        ai.byte = instr.byte;
        switch (isa::opFormat(instr.op)) {
          case isa::OpFormat::Jump:
            ai.jump_target = Expr::sym(labelFor(instr.jump_target));
            break;
          case isa::OpFormat::SingleOperand:
            if (instr.op != isa::Op::Reti)
                ai.dst = liftOperand(instr.dst, fbegin, fend, addr_syms);
            break;
          case isa::OpFormat::DoubleOperand:
            ai.src = liftOperand(instr.src, fbegin, fend, addr_syms);
            ai.dst = liftOperand(instr.dst, fbegin, fend, addr_syms);
            break;
        }
        out.stmts.push_back(Statement::makeInstr(std::move(ai)));
    }
    out.stmts.push_back(Statement::makeDirective(Directive::EndFunc));
    return out;
}

Program
reimportAllFunctions(const AssembleResult &assembled)
{
    // addr -> name for every symbol (functions and data); generated
    // bookkeeping symbols are skipped.
    std::unordered_map<std::uint16_t, std::string> names;
    for (const auto &[name, addr] : assembled.symbols) {
        if (support::startsWith(name, "__end_") ||
            support::startsWith(name, "..rx")) {
            continue;
        }
        auto [it, inserted] = names.emplace(addr, name);
        if (!inserted && name < it->second)
            it->second = name; // deterministic choice
    }
    Program out;
    out.stmts.push_back(Statement::makeDirective(Directive::Text));
    for (const FunctionInfo &f : assembled.functions)
        out.append(reimportFunction(assembled.image, f, names));
    return out;
}

} // namespace swapram::masm
