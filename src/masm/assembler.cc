#include "masm/assembler.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "isa/encode.hh"
#include "support/logging.hh"
#include "support/platform.hh"

namespace swapram::masm {

namespace {

using support::fatal;

enum class Section : std::uint8_t { Text = 0, Const = 1, Data = 2, Bss = 3 };

constexpr int kNumSections = 4;

bool
isSectionDirective(Directive d)
{
    return d == Directive::Text || d == Directive::Const ||
           d == Directive::Data || d == Directive::Bss;
}

Section
sectionOf(Directive d)
{
    switch (d) {
      case Directive::Text: return Section::Text;
      case Directive::Const: return Section::Const;
      case Directive::Data: return Section::Data;
      case Directive::Bss: return Section::Bss;
      default:
        support::panic("sectionOf: not a section directive");
    }
}

/** Symbol environment: label addresses plus lazily evaluated .equ defs. */
struct SymbolEnv {
    std::unordered_map<std::string, std::uint16_t> addrs;
    std::unordered_map<std::string, Expr> equs;
};

std::int64_t
evalExpr(const Expr &e, const SymbolEnv &env, int line, int depth = 0)
{
    if (depth > 32)
        fatal("line ", line, ": .equ recursion too deep");
    switch (e.kind()) {
      case Expr::Kind::Number:
        return e.number();
      case Expr::Kind::Symbol: {
        auto it = env.addrs.find(e.symbol());
        if (it != env.addrs.end())
            return it->second;
        auto eq = env.equs.find(e.symbol());
        if (eq != env.equs.end())
            return evalExpr(eq->second, env, line, depth + 1);
        fatal("line ", line, ": undefined symbol '", e.symbol(), "'");
      }
      case Expr::Kind::Neg:
        return -evalExpr(e.operand(), env, line, depth + 1);
      default: {
        std::int64_t l = evalExpr(e.lhs(), env, line, depth + 1);
        std::int64_t r = evalExpr(e.rhs(), env, line, depth + 1);
        switch (e.kind()) {
          case Expr::Kind::Add: return l + r;
          case Expr::Kind::Sub: return l - r;
          case Expr::Kind::Mul: return l * r;
          case Expr::Kind::Div:
            if (r == 0)
                fatal("line ", line, ": division by zero");
            return l / r;
          case Expr::Kind::ShiftLeft: return l << (r & 63);
          case Expr::Kind::ShiftRight:
            return static_cast<std::int64_t>(
                static_cast<std::uint64_t>(l) >> (r & 63));
          case Expr::Kind::And: return l & r;
          case Expr::Kind::Or: return l | r;
          default:
            support::panic("evalExpr: bad kind");
        }
      }
    }
}

std::uint16_t
toWord(std::int64_t v, int line)
{
    if (v < -32768 || v > 65535)
        fatal("line ", line, ": value ", v, " does not fit in 16 bits");
    return static_cast<std::uint16_t>(v & 0xFFFF);
}

/**
 * Lower one symbolic operand to a numeric isa::Operand. With @p env ==
 * nullptr, only sizes matter: values are placeholders but force_ext is
 * final (which is what makes sizes stable across passes).
 */
isa::Operand
lowerOperand(const AsmOperand &op, bool byte_op, const SymbolEnv *env,
             int line)
{
    (void)byte_op; // CG eligibility is decided by the encoder

    auto value = [&](const Expr &e) -> std::uint16_t {
        if (!env) {
            auto folded = e.constantFold();
            return folded ? toWord(*folded, line) : 0;
        }
        return toWord(evalExpr(e, *env, line), line);
    };
    switch (op.kind) {
      case OperKind::Register:
        return isa::Operand::makeReg(op.reg);
      case OperKind::Indexed:
        return isa::Operand::makeIndexed(op.reg, value(op.expr));
      case OperKind::SymbolicMem:
        return isa::Operand::makeSymbolic(value(op.expr));
      case OperKind::Absolute:
        return isa::Operand::makeAbs(value(op.expr));
      case OperKind::Indirect:
        return isa::Operand::makeIndirect(op.reg, false);
      case OperKind::IndirectInc:
        return isa::Operand::makeIndirect(op.reg, true);
      case OperKind::Immediate: {
        auto folded = op.expr.constantFold();
        if (folded) {
            std::uint16_t v = toWord(*folded, line);
            return isa::Operand::makeImm(v, false);
        }
        // Symbolic immediate: size must not depend on the resolved
        // value, so always use an extension word.
        std::uint16_t v = env ? toWord(evalExpr(op.expr, *env, line), line)
                              : 0;
        return isa::Operand::makeImm(v, true);
      }
    }
    support::panic("lowerOperand: bad kind");
}

isa::Instr
lowerInstr(const AsmInstr &ai, const SymbolEnv *env, int line)
{
    isa::Instr instr;
    instr.op = ai.op;
    instr.byte = ai.byte;
    switch (isa::opFormat(ai.op)) {
      case isa::OpFormat::Jump:
        instr.jump_target =
            env ? toWord(evalExpr(ai.jump_target, *env, line), line) : 0;
        break;
      case isa::OpFormat::SingleOperand:
        if (ai.op != isa::Op::Reti)
            instr.dst = lowerOperand(*ai.dst, ai.byte, env, line);
        break;
      case isa::OpFormat::DoubleOperand:
        instr.src = lowerOperand(*ai.src, ai.byte, env, line);
        instr.dst = lowerOperand(*ai.dst, ai.byte, env, line);
        break;
    }
    return instr;
}

/** Per-statement placement computed by the address walk. */
struct Placement {
    Section section = Section::Text;
    std::uint32_t offset = 0;
};

struct WalkResult {
    std::vector<Placement> places;
    std::array<std::uint32_t, kNumSections> sizes{};
    SymbolEnv env; // labels not yet rebased (offsets); see rebase step
    // Labels are recorded as (section, offset) then rebased.
    std::vector<std::pair<std::string, Placement>> labels;
    std::vector<std::pair<std::string, Placement>> func_starts;
    std::vector<std::pair<std::string, Placement>> func_ends;
};

std::int64_t
literalArg(const Statement &s, size_t index)
{
    if (index >= s.args.size())
        fatal("line ", s.line, ": missing directive argument");
    auto v = s.args[index].constantFold();
    if (!v)
        fatal("line ", s.line, ": argument must be a literal constant");
    return *v;
}

WalkResult
walkAddresses(const Program &program)
{
    WalkResult out;
    out.places.resize(program.stmts.size());
    Section cur = Section::Text;
    std::array<std::uint32_t, kNumSections> off{};
    std::string pending_func;

    auto align_to = [&](std::uint32_t a) {
        std::uint32_t &o = off[static_cast<int>(cur)];
        o = (o + a - 1) & ~(a - 1);
    };

    for (size_t i = 0; i < program.stmts.size(); ++i) {
        const Statement &s = program.stmts[i];
        auto &o = off[static_cast<int>(cur)];
        switch (s.kind) {
          case Statement::Kind::Label:
            out.places[i] = {cur, o};
            out.labels.push_back({s.label, {cur, o}});
            break;
          case Statement::Kind::Instr: {
            if (cur != Section::Text)
                fatal("line ", s.line, ": instruction outside .text");
            if (o & 1)
                fatal("line ", s.line, ": instruction at odd offset");
            out.places[i] = {cur, o};
            o += instrSize(s.instr);
            break;
          }
          case Statement::Kind::Directive: {
            if (isSectionDirective(s.directive)) {
                cur = sectionOf(s.directive);
                out.places[i] = {cur, off[static_cast<int>(cur)]};
                break;
            }
            switch (s.directive) {
              case Directive::Word:
                if (cur == Section::Bss)
                    fatal("line ", s.line, ": .word in .bss");
                if (o & 1)
                    fatal("line ", s.line,
                          ": .word at odd offset; use .align 2");
                out.places[i] = {cur, o};
                o += 2 * static_cast<std::uint32_t>(s.args.size());
                break;
              case Directive::Byte:
                if (cur == Section::Bss)
                    fatal("line ", s.line, ": .byte in .bss");
                out.places[i] = {cur, o};
                o += static_cast<std::uint32_t>(s.args.size());
                break;
              case Directive::Space: {
                std::int64_t n = literalArg(s, 0);
                if (n < 0 || n > 0xFFFF)
                    fatal("line ", s.line, ": bad .space size");
                out.places[i] = {cur, o};
                o += static_cast<std::uint32_t>(n);
                break;
              }
              case Directive::Align: {
                std::int64_t a = literalArg(s, 0);
                if (a != 1 && a != 2 && a != 4 && a != 8 && a != 16 &&
                    a != 32) {
                    fatal("line ", s.line, ": bad .align");
                }
                align_to(static_cast<std::uint32_t>(a));
                out.places[i] = {cur, o};
                break;
              }
              case Directive::Ascii:
              case Directive::Asciz:
                if (cur == Section::Bss)
                    fatal("line ", s.line, ": string data in .bss");
                out.places[i] = {cur, o};
                o += static_cast<std::uint32_t>(s.str.size()) +
                     (s.directive == Directive::Asciz ? 1 : 0);
                break;
              case Directive::Global:
                out.places[i] = {cur, o};
                break;
              case Directive::Equ:
                out.places[i] = {cur, o};
                out.env.equs[s.name] = s.args.at(0);
                break;
              case Directive::Func:
                if (cur != Section::Text)
                    fatal("line ", s.line, ": .func outside .text");
                if (!pending_func.empty())
                    fatal("line ", s.line, ": nested .func");
                align_to(2);
                out.places[i] = {cur, o};
                out.labels.push_back({s.name, {cur, o}});
                out.func_starts.push_back({s.name, {cur, o}});
                pending_func = s.name;
                break;
              case Directive::EndFunc:
                if (pending_func.empty())
                    fatal("line ", s.line, ": .endfunc without .func");
                out.places[i] = {cur, o};
                out.labels.push_back(
                    {"__end_" + pending_func, {cur, o}});
                out.func_ends.push_back({pending_func, {cur, o}});
                pending_func.clear();
                break;
              default:
                support::panic("walkAddresses: unhandled directive");
            }
            break;
          }
        }
    }
    if (!pending_func.empty())
        fatal("unterminated .func ", pending_func);
    out.sizes = off;
    return out;
}

struct Bases {
    std::array<std::uint16_t, kNumSections> base{};
};

Bases
resolveBases(const WalkResult &walk, const LayoutSpec &layout)
{
    auto align2 = [](std::uint32_t v) { return (v + 1) & ~1u; };
    Bases b;
    b.base[0] = layout.text_base;
    std::uint32_t text_end = layout.text_base + walk.sizes[0];
    b.base[1] = layout.const_base.value_or(
        static_cast<std::uint16_t>(align2(text_end)));
    std::uint32_t const_end = b.base[1] + walk.sizes[1];
    b.base[2] = layout.data_base.value_or(
        static_cast<std::uint16_t>(align2(const_end)));
    std::uint32_t data_end = b.base[2] + walk.sizes[2];
    b.base[3] = layout.bss_base.value_or(
        static_cast<std::uint16_t>(align2(data_end)));
    std::uint32_t bss_end = b.base[3] + walk.sizes[3];
    for (int i = 0; i < kNumSections; ++i) {
        std::uint32_t end = b.base[i] + walk.sizes[i];
        if (end > 0x10000)
            fatal("section overflows the 16-bit address space");
    }
    (void)bss_end;
    return b;
}

/** Build the final symbol environment with rebased label addresses. */
SymbolEnv
buildEnv(const WalkResult &walk, const Bases &bases,
         const LayoutSpec &layout)
{
    SymbolEnv env = walk.env;
    namespace plat = swapram::platform;
    env.addrs["__CONSOLE"] = plat::kMmioConsole;
    env.addrs["__DONE"] = plat::kMmioDone;
    env.addrs["__PIN"] = plat::kMmioPin;
    env.addrs["__CYCLO"] = plat::kMmioCycleLo;
    env.addrs["__CYCHI"] = plat::kMmioCycleHi;
    // Linker-style section-boundary symbols (resolved per relaxation
    // pass, like labels): generated runtimes reference .data/.bss
    // without knowing the layout — e.g. the checkpoint machinery
    // snapshots the sections crt0 reinitialises on every boot.
    env.addrs["__sect_data_base"] = bases.base[2];
    env.addrs["__sect_data_size"] =
        static_cast<std::uint16_t>(walk.sizes[2]);
    env.addrs["__sect_bss_base"] = bases.base[3];
    env.addrs["__sect_bss_size"] =
        static_cast<std::uint16_t>(walk.sizes[3]);
    for (const auto &[name, value] : layout.predefined)
        env.addrs[name] = value;
    for (const auto &[name, place] : walk.labels) {
        std::uint16_t addr = static_cast<std::uint16_t>(
            bases.base[static_cast<int>(place.section)] + place.offset);
        auto [it, inserted] = env.addrs.insert({name, addr});
        if (!inserted)
            fatal("duplicate symbol '", name, "'");
    }
    return env;
}

/** Jump-inversion for relaxation; JN has no inverse (handled apart). */
std::optional<isa::Op>
invertJump(isa::Op op)
{
    using isa::Op;
    switch (op) {
      case Op::Jne: return Op::Jeq;
      case Op::Jeq: return Op::Jne;
      case Op::Jnc: return Op::Jc;
      case Op::Jc: return Op::Jnc;
      case Op::Jge: return Op::Jl;
      case Op::Jl: return Op::Jge;
      default: return std::nullopt;
    }
}

} // namespace

std::uint16_t
instrSize(const AsmInstr &instr)
{
    if (isa::opFormat(instr.op) == isa::OpFormat::Jump)
        return 2;
    return isa::encodedSize(lowerInstr(instr, nullptr, 0));
}

std::uint16_t
AssembleResult::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("unknown symbol '", name, "'");
    return it->second;
}

const FunctionInfo &
AssembleResult::function(const std::string &name) const
{
    for (const FunctionInfo &f : functions) {
        if (f.name == name)
            return f;
    }
    fatal("unknown function '", name, "'");
}

FunctionIndex::FunctionIndex(std::vector<FunctionInfo> functions)
    : funcs_(std::move(functions))
{
    std::sort(funcs_.begin(), funcs_.end(),
              [](const FunctionInfo &a, const FunctionInfo &b) {
                  return a.addr < b.addr;
              });
}

const FunctionInfo *
FunctionIndex::at(std::uint16_t addr) const
{
    auto it = std::upper_bound(
        funcs_.begin(), funcs_.end(), addr,
        [](std::uint16_t v, const FunctionInfo &f) {
            return v < f.addr;
        });
    if (it == funcs_.begin())
        return nullptr;
    --it;
    if (addr < static_cast<std::uint32_t>(it->addr) + it->size)
        return &*it;
    return nullptr;
}

std::string
FunctionIndex::label(std::uint16_t addr) const
{
    const FunctionInfo *f = at(addr);
    if (!f)
        return {};
    if (addr == f->addr)
        return f->name;
    return support::cat(f->name, "+0x", std::hex, addr - f->addr);
}

AssembleResult
assemble(Program work, const LayoutSpec &layout)
{
    int relax_counter = 0;

    for (int iteration = 0;; ++iteration) {
        if (iteration > 64)
            fatal("jump relaxation did not converge");

        WalkResult walk = walkAddresses(work);
        Bases bases = resolveBases(walk, layout);
        SymbolEnv env = buildEnv(walk, bases, layout);

        // Find every out-of-range jump, transform them all (from the
        // back so indices stay valid), and retry.
        std::vector<size_t> to_relax;
        for (size_t i = 0; i < work.stmts.size(); ++i) {
            Statement &s = work.stmts[i];
            if (s.kind != Statement::Kind::Instr)
                continue;
            if (isa::opFormat(s.instr.op) != isa::OpFormat::Jump)
                continue;
            std::uint16_t addr = static_cast<std::uint16_t>(
                bases.base[static_cast<int>(walk.places[i].section)] +
                walk.places[i].offset);
            std::uint16_t target = toWord(
                evalExpr(s.instr.jump_target, env, s.line), s.line);
            if (!isa::jumpInRange(addr, target))
                to_relax.push_back(i);
        }
        for (auto it = to_relax.rbegin(); it != to_relax.rend(); ++it) {
            size_t i = *it;
            Statement &s = work.stmts[i];
            std::vector<Statement> repl;
            Expr target_expr = s.instr.jump_target;
            if (s.instr.op == isa::Op::Jmp) {
                repl.push_back(Statement::makeInstr(
                    brImm(target_expr), s.line));
            } else if (auto inv = invertJump(s.instr.op)) {
                std::string skip =
                    "..rx" + std::to_string(relax_counter++);
                repl.push_back(Statement::makeInstr(
                    jump(*inv, Expr::sym(skip)), s.line));
                repl.push_back(Statement::makeInstr(
                    brImm(target_expr), s.line));
                repl.push_back(Statement::makeLabel(skip, s.line));
            } else {
                // JN: take/skip ladder.
                std::string take =
                    "..rx" + std::to_string(relax_counter++);
                std::string skip =
                    "..rx" + std::to_string(relax_counter++);
                repl.push_back(Statement::makeInstr(
                    jump(isa::Op::Jn, Expr::sym(take)), s.line));
                repl.push_back(Statement::makeInstr(
                    jump(isa::Op::Jmp, Expr::sym(skip)), s.line));
                repl.push_back(Statement::makeLabel(take, s.line));
                repl.push_back(Statement::makeInstr(
                    brImm(target_expr), s.line));
                repl.push_back(Statement::makeLabel(skip, s.line));
            }
            work.stmts.erase(work.stmts.begin() + i);
            work.stmts.insert(work.stmts.begin() + i, repl.begin(),
                              repl.end());
        }
        if (!to_relax.empty())
            continue;

        // Stable: emit.
        AssembleResult out;
        out.stmt_addr.resize(work.stmts.size());
        std::array<std::vector<std::uint8_t>, kNumSections> buf;
        for (int sec = 0; sec < kNumSections; ++sec)
            buf[sec].assign(walk.sizes[sec], 0);

        for (size_t i = 0; i < work.stmts.size(); ++i) {
            const Statement &s = work.stmts[i];
            const Placement &place = walk.places[i];
            int sec = static_cast<int>(place.section);
            std::uint16_t addr = static_cast<std::uint16_t>(
                bases.base[sec] + place.offset);
            out.stmt_addr[i] = addr;
            auto put_byte = [&](std::uint32_t off, std::uint8_t v) {
                buf[sec].at(off) = v;
            };
            auto put_word = [&](std::uint32_t off, std::uint16_t v) {
                buf[sec].at(off) = static_cast<std::uint8_t>(v & 0xFF);
                buf[sec].at(off + 1) = static_cast<std::uint8_t>(v >> 8);
            };
            switch (s.kind) {
              case Statement::Kind::Label:
                break;
              case Statement::Kind::Instr: {
                isa::Instr instr = lowerInstr(s.instr, &env, s.line);
                auto words = isa::encode(instr, addr);
                std::uint32_t off = place.offset;
                for (std::uint16_t w : words) {
                    put_word(off, w);
                    off += 2;
                }
                break;
              }
              case Statement::Kind::Directive: {
                switch (s.directive) {
                  case Directive::Word: {
                    std::uint32_t off = place.offset;
                    for (const Expr &arg : s.args) {
                        put_word(off,
                                 toWord(evalExpr(arg, env, s.line),
                                        s.line));
                        off += 2;
                    }
                    break;
                  }
                  case Directive::Byte: {
                    std::uint32_t off = place.offset;
                    for (const Expr &arg : s.args) {
                        std::int64_t v = evalExpr(arg, env, s.line);
                        if (v < -128 || v > 255) {
                            fatal("line ", s.line, ": byte value ", v,
                                  " out of range");
                        }
                        put_byte(off++,
                                 static_cast<std::uint8_t>(v & 0xFF));
                    }
                    break;
                  }
                  case Directive::Ascii:
                  case Directive::Asciz: {
                    std::uint32_t off = place.offset;
                    for (char c : s.str)
                        put_byte(off++, static_cast<std::uint8_t>(c));
                    if (s.directive == Directive::Asciz)
                        put_byte(off, 0);
                    break;
                  }
                  default:
                    break; // space/align are zero fill; others no bytes
                }
                break;
              }
            }
        }

        out.image.text = {bases.base[0], walk.sizes[0]};
        out.image.cnst = {bases.base[1], walk.sizes[1]};
        out.image.data = {bases.base[2], walk.sizes[2]};
        out.image.bss = {bases.base[3], walk.sizes[3]};
        for (int sec = 0; sec < 3; ++sec) {
            if (!buf[sec].empty())
                out.image.chunks.push_back(
                    {bases.base[sec], std::move(buf[sec])});
        }
        for (const auto &[name, value] : env.addrs)
            out.symbols[name] = value;
        for (size_t f = 0; f < walk.func_starts.size(); ++f) {
            const auto &[name, start] = walk.func_starts[f];
            const auto &[end_name, end] = walk.func_ends[f];
            if (end_name != name)
                support::panic("function bookkeeping out of order");
            FunctionInfo info;
            info.name = name;
            info.addr = static_cast<std::uint16_t>(
                bases.base[static_cast<int>(start.section)] +
                start.offset);
            info.size =
                static_cast<std::uint16_t>(end.offset - start.offset);
            out.functions.push_back(std::move(info));
        }
        auto entry_it = out.symbols.find("__start");
        out.image.entry = entry_it != out.symbols.end()
                              ? entry_it->second
                              : bases.base[0];
        // Only now: the emission loop above reads the statements.
        out.relaxed = std::move(work);
        return out;
    }
}

} // namespace swapram::masm
