#include "swapram/pass.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace swapram::cache {

using masm::AsmOperand;
using masm::Directive;
using masm::Expr;
using masm::OperKind;
using masm::Program;
using masm::Statement;

FuncIds
collectFunctions(const Program &program, const Options &options)
{
    FuncIds out;
    for (const masm::FuncRange &f : masm::findFunctions(program)) {
        const std::string &name = f.name.str();
        if (options.isBlacklisted(name))
            continue;
        if (out.contains(name))
            support::fatal("duplicate function '", name, "'");
        out.ids[name] = out.count();
        out.names.push_back(name);
    }
    return out;
}

namespace {

/** The call target, if this is `CALL #symbol`; else the empty Symbol. */
masm::Symbol
directCallTarget(const Statement &s)
{
    if (s.kind != Statement::Kind::Instr)
        return {};
    const masm::AsmInstr &i = s.instr;
    if (i.op != isa::Op::Call || !i.dst)
        return {};
    if (i.dst->kind != OperKind::Immediate || !i.dst->expr.isSymbol())
        return {};
    return i.dst->expr.symbolId();
}

Expr
cellAddr(masm::Symbol table, int id)
{
    return Expr::add(Expr::sym(table), Expr::num(2 * id));
}

/** The runtime symbols the pass references, interned once. */
struct PassSymbols {
    masm::Symbol swap_in{"__data_swap_in"}, swap_out{"__data_swap_out"};
    masm::Symbol din{"__swp_din"}, dout{"__swp_dout"};
    masm::Symbol active{"__swp_active"}, curid{"__swp_curid"},
        redirect{"__swp_redirect"};
};

const PassSymbols &
passSymbols()
{
    static const PassSymbols symbols;
    return symbols;
}

} // namespace

Program
instrumentCalls(Program program, const FuncIds &funcs,
                const Options &options, PassStats *stats)
{
    const PassSymbols &sym = passSymbols();
    std::unordered_map<std::uint32_t, int> func_id;
    for (int id = 0; id < funcs.count(); ++id)
        func_id.emplace(masm::Symbol(funcs.names[id]).id(), id);
    auto idOf = [&func_id](masm::Symbol s) {
        auto it = func_id.find(s.id());
        return it == func_id.end() ? -1 : it->second;
    };

    // Pass 1, in place: retarget data-swap calls, absolutize data
    // operands, and list the call sites to expand (with their funcIds).
    PassStats local;
    std::vector<Statement> &stmts = program.stmts;
    std::vector<std::pair<std::size_t, int>> sites;
    // Track whether we are inside an instrumented function, for the
    // symbolic->absolute rewrite.
    bool in_cacheable_func = false;
    for (std::size_t i = 0; i < stmts.size(); ++i) {
        Statement &s = stmts[i];
        if (s.kind == Statement::Kind::Directive) {
            if (s.directive == Directive::Func)
                in_cacheable_func = idOf(s.name) >= 0;
            else if (s.directive == Directive::EndFunc)
                in_cacheable_func = false;
        }

        // Data-side SwapRAM: with a pool configured, calls to the
        // portable `__data_swap_in`/`__data_swap_out` library shims are
        // rewired to the generated pool routines. Checked before call
        // instrumentation — the shims are ordinary .funcs, so without a
        // pool they are cached and called like any other function.
        const masm::Symbol target = directCallTarget(s);
        if (!target.empty() && options.data_pool_bytes &&
            (target == sym.swap_in || target == sym.swap_out)) {
            s.instr.dst->expr =
                Expr::sym(target == sym.swap_in ? sym.din : sym.dout);
            ++local.data_swap_calls_retargeted;
            continue;
        }
        if (!target.empty()) {
            if (int id = idOf(target); id >= 0) {
                sites.emplace_back(i, id);
                ++local.call_sites_instrumented;
                continue;
            }
        }
        // PC-relative (symbolic) data operands become absolute: the
        // instrumented code must be runtime-relocatable.
        if (in_cacheable_func && s.kind == Statement::Kind::Instr) {
            auto absolutize = [&](std::optional<AsmOperand> &op) {
                if (op && op->kind == OperKind::SymbolicMem) {
                    op->kind = OperKind::Absolute;
                    op->reg = isa::Reg::SR;
                    ++local.symbolic_operands_absolutized;
                }
            };
            absolutize(s.instr.src);
            absolutize(s.instr.dst);
        }
    }

    // Pass 2: each call site becomes four statements. Expanding from
    // the back moves every statement once, within the vector.
    std::size_t src_end = stmts.size();
    stmts.resize(src_end + 3 * sites.size());
    auto dst = stmts.end();
    for (auto it = sites.rbegin(); it != sites.rend(); ++it) {
        const auto [i, id] = *it;
        const auto at = stmts.begin() + static_cast<std::ptrdiff_t>(i);
        dst = std::move_backward(
            at + 1, stmts.begin() + static_cast<std::ptrdiff_t>(src_end),
            dst);
        const int line = at->line;
        dst -= 4;
        dst[0] = Statement::makeInstr(
            masm::addImmToAbs(1, cellAddr(sym.active, id)), line);
        dst[1] = Statement::makeInstr(
            masm::movInstr(AsmOperand::imm(Expr::num(2 * id)),
                           AsmOperand::abs(Expr::sym(sym.curid))),
            line);
        dst[2] = Statement::makeInstr(
            masm::callAbs(cellAddr(sym.redirect, id)), line);
        dst[3] = Statement::makeInstr(
            masm::subImmFromAbs(1, cellAddr(sym.active, id)), line);
        src_end = i;
    }

    if (stats)
        *stats = local;
    return program;
}

} // namespace swapram::cache
