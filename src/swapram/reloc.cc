#include "swapram/reloc.hh"

#include <utility>

#include "support/logging.hh"

namespace swapram::cache {

using masm::AsmOperand;
using masm::Expr;
using masm::OperKind;
using masm::Statement;

namespace {

/** Evaluate an expression against the resolved symbol table. */
std::optional<std::int64_t>
evalWith(const Expr &e, const masm::SymbolTable &symbols)
{
    switch (e.kind()) {
      case Expr::Kind::Number:
        return e.number();
      case Expr::Kind::Symbol: {
        auto it = symbols.find(e.symbolId());
        if (it == symbols.end())
            return std::nullopt;
        return it->second;
      }
      case Expr::Kind::Neg: {
        auto v = evalWith(e.operand(), symbols);
        return v ? std::optional<std::int64_t>(-*v) : std::nullopt;
      }
      default: {
        auto l = evalWith(e.lhs(), symbols);
        auto r = evalWith(e.rhs(), symbols);
        if (!l || !r)
            return std::nullopt;
        switch (e.kind()) {
          case Expr::Kind::Add: return *l + *r;
          case Expr::Kind::Sub: return *l - *r;
          case Expr::Kind::Mul: return *l * *r;
          case Expr::Kind::Div: return *r ? *l / *r : 0;
          case Expr::Kind::ShiftLeft: return *l << (*r & 63);
          case Expr::Kind::ShiftRight:
            return static_cast<std::int64_t>(
                static_cast<std::uint64_t>(*l) >> (*r & 63));
          case Expr::Kind::And: return *l & *r;
          case Expr::Kind::Or: return *l | *r;
          default: return std::nullopt;
        }
      }
    }
}

/** Is this statement `MOV #expr, PC` (an absolute branch)? */
bool
isAbsoluteBranch(const Statement &s)
{
    if (s.kind != Statement::Kind::Instr)
        return false;
    const masm::AsmInstr &i = s.instr;
    return i.op == isa::Op::Mov && !i.byte && i.src && i.dst &&
           i.src->kind == OperKind::Immediate &&
           i.dst->kind == OperKind::Register &&
           i.dst->reg == isa::Reg::PC;
}

} // namespace

RelocResult
relocateBranches(masm::AssembleResult &inter, const FuncIds &funcs)
{
    RelocResult out;
    out.program = std::move(inter.relaxed);
    out.func_first.assign(funcs.count() + 1, 0);

    // Walk functions in id order so entries group contiguously.
    auto ranges = masm::findFunctions(out.program);
    const masm::Symbol rval("__swp_rval");
    for (int id = 0; id < funcs.count(); ++id) {
        out.func_first[id] = static_cast<int>(out.entries.size());
        const std::string &name = funcs.names[id];
        const masm::Symbol symbol = masm::Symbol::find(name);
        const masm::FuncRange *range = nullptr;
        for (const auto &r : ranges) {
            if (r.name == symbol) {
                range = &r;
                break;
            }
        }
        if (!range)
            support::panic("relocateBranches: missing function ", name);
        const masm::FunctionInfo &info = inter.function(name);
        std::uint32_t fbegin = info.addr;
        std::uint32_t fend = info.addr + info.size;

        for (size_t i = range->func_stmt; i <= range->endfunc_stmt; ++i) {
            Statement &s = out.program.stmts[i];
            if (!isAbsoluteBranch(s))
                continue;
            auto target = evalWith(s.instr.src->expr, inter.symbols);
            if (!target)
                continue;
            std::uint32_t t = static_cast<std::uint16_t>(*target);
            if (t < fbegin || t >= fend)
                continue; // cross-function branch: stays absolute
            int k = static_cast<int>(out.entries.size());
            out.entries.push_back(
                {id, static_cast<std::uint16_t>(t - fbegin),
                 static_cast<std::uint16_t>(t)});
            s.instr.src = AsmOperand::abs(
                Expr::add(Expr::sym(rval), Expr::num(2 * k)));
        }
    }
    out.func_first[funcs.count()] = static_cast<int>(out.entries.size());
    return out;
}

} // namespace swapram::cache
