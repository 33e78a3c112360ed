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

/** What a symbol is during one relaxation round. */
struct Def {
    std::uint32_t round = 0;    ///< the round that defined it
    std::uint16_t value = 0;    ///< its address (when expr is null)
    const Expr *expr = nullptr; ///< its .equ definition
};

/**
 * The symbols of one relaxation round, in a table indexed by symbol
 * id: labels and predefined and built-in symbols by address, .equs by
 * their (lazily evaluated) definition. One table per thread serves
 * every assembly; an entry another round wrote reads as undefined.
 */
class SymbolEnv
{
  public:
    /** Start a round with nothing defined, covering every symbol
     *  interned so far. */
    void
    beginRound()
    {
        if (++round_ == 0) {
            std::fill(defs_.begin(), defs_.end(), Def{});
            round_ = 1;
        }
        if (defs_.size() < Symbol::bound())
            defs_.resize(Symbol::bound());
    }

    /** The definition of @p s this round, or null. */
    const Def *
    find(Symbol s) const
    {
        if (s.id() >= defs_.size())
            return nullptr;
        const Def &d = defs_[s.id()];
        return d.round == round_ ? &d : nullptr;
    }

    /** Define @p s as an address; false if it already was defined
     *  this round (as anything). */
    bool
    defineAddr(Symbol s, std::uint16_t value)
    {
        Def &d = slot(s);
        const bool fresh = d.round != round_;
        d = {round_, value, nullptr};
        return fresh;
    }

    /** Define @p s as @p expr unless an address already defines it:
     *  addresses win, and a later .equ replaces an earlier one. */
    void
    defineEqu(Symbol s, const Expr &expr)
    {
        Def &d = slot(s);
        if (d.round != round_ || d.expr)
            d = {round_, 0, &expr};
    }

  private:
    /** The entry of @p s. beginRound() sized the table for every
     *  symbol this thread has seen; grow it anyway rather than write
     *  past its end. */
    Def &
    slot(Symbol s)
    {
        if (s.id() >= defs_.size())
            defs_.resize(std::max<std::size_t>(Symbol::bound(), s.id() + 1));
        return defs_[s.id()];
    }

    std::vector<Def> defs_;
    std::uint32_t round_ = 0;
};

thread_local SymbolEnv t_env;

std::int64_t
evalExpr(const Expr &e, const SymbolEnv &env, int line, int depth = 0)
{
    if (depth > 32)
        fatal("line ", line, ": .equ recursion too deep");
    switch (e.kind()) {
      case Expr::Kind::Number:
        return e.number();
      case Expr::Kind::Symbol: {
        const Def *d = env.find(e.symbolId());
        if (!d)
            fatal("line ", line, ": undefined symbol '", e.symbol(), "'");
        if (!d->expr)
            return d->value;
        return evalExpr(*d->expr, env, line, depth + 1);
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
 * Extension bytes of one symbolic operand: what its encoding needs
 * whatever its symbols resolve to. A literal value must fit in 16
 * bits; one that does not is reported at @p line.
 */
std::uint16_t
operandExtBytes(const AsmOperand &op, bool byte_op, int line)
{
    switch (op.kind) {
      case OperKind::Register:
      case OperKind::Indirect:
      case OperKind::IndirectInc:
        return 0;
      case OperKind::Indexed:
      case OperKind::SymbolicMem:
      case OperKind::Absolute:
        if (auto folded = op.expr.constantFold())
            toWord(*folded, line);
        return 2;
      case OperKind::Immediate:
        // A symbolic immediate always takes an extension word, so its
        // size does not depend on the resolved value.
        if (auto folded = op.expr.constantFold())
            return isa::cgEligible(toWord(*folded, line), byte_op) ? 0 : 2;
        return 2;
    }
    support::panic("operandExtBytes: bad kind");
}

/** Lower one symbolic operand to a numeric isa::Operand. */
isa::Operand
lowerOperand(const AsmOperand &op, const SymbolEnv &env, int line)
{
    auto value = [&](const Expr &e) -> std::uint16_t {
        return toWord(evalExpr(e, env, line), line);
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
      case OperKind::Immediate:
        if (auto folded = op.expr.constantFold())
            return isa::Operand::makeImm(toWord(*folded, line), false);
        // Symbolic immediate: sized with an extension word (see
        // operandExtBytes).
        return isa::Operand::makeImm(value(op.expr), true);
    }
    support::panic("lowerOperand: bad kind");
}

isa::Instr
lowerInstr(const AsmInstr &ai, const SymbolEnv &env, int line)
{
    isa::Instr instr;
    instr.op = ai.op;
    instr.byte = ai.byte;
    switch (isa::opFormat(ai.op)) {
      case isa::OpFormat::Jump:
        instr.jump_target = toWord(evalExpr(ai.jump_target, env, line), line);
        break;
      case isa::OpFormat::SingleOperand:
        if (ai.op != isa::Op::Reti)
            instr.dst = lowerOperand(*ai.dst, env, line);
        break;
      case isa::OpFormat::DoubleOperand:
        instr.src = lowerOperand(*ai.src, env, line);
        instr.dst = lowerOperand(*ai.dst, env, line);
        break;
    }
    return instr;
}

/** Per-statement placement computed by the address walk. */
struct Placement {
    Section section = Section::Text;
    std::uint32_t offset = 0;
};

/** A symbol the walk defines, at a section offset (not yet based). */
struct PlacedSymbol {
    Symbol symbol;
    Placement place;
};

struct WalkResult {
    std::vector<Placement> places;
    std::array<std::uint32_t, kNumSections> sizes{};
    /** Labels, .func names and `__end_` labels, in program order. */
    std::vector<PlacedSymbol> labels;
    /** Every .equ, in program order. */
    std::vector<std::pair<Symbol, const Expr *>> equs;
    std::vector<PlacedSymbol> func_starts;
    std::vector<Placement> func_ends;
};

/** `__end_<name>` for the .func @p name, interned once per thread. */
Symbol
endSymbol(Symbol name)
{
    thread_local std::vector<Symbol> ends;
    if (ends.size() <= name.id())
        ends.resize(std::max<std::size_t>(Symbol::bound(), name.id() + 1));
    Symbol &end = ends[name.id()];
    if (end.empty())
        end = Symbol("__end_" + name.str());
    return end;
}

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

void
walkAddresses(const Program &program, WalkResult &out)
{
    out.places.resize(program.stmts.size());
    out.labels.clear();
    out.equs.clear();
    out.func_starts.clear();
    out.func_ends.clear();
    Section cur = Section::Text;
    std::array<std::uint32_t, kNumSections> off{};
    Symbol pending_func;

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
            o += instrSize(s.instr, s.line);
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
                out.equs.emplace_back(s.name, &s.args.at(0));
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
                out.labels.push_back({endSymbol(pending_func), {cur, o}});
                out.func_ends.push_back({cur, o});
                pending_func = Symbol();
                break;
              default:
                support::panic("walkAddresses: unhandled directive");
            }
            break;
          }
        }
    }
    if (!pending_func.empty())
        fatal("unterminated .func ", pending_func.str());
    out.sizes = off;
}

struct Bases {
    std::array<std::uint16_t, kNumSections> base{};

    std::uint16_t
    addr(const Placement &p) const
    {
        return static_cast<std::uint16_t>(
            base[static_cast<int>(p.section)] + p.offset);
    }
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
    for (int i = 0; i < kNumSections; ++i) {
        std::uint32_t end = b.base[i] + walk.sizes[i];
        if (end > 0x10000)
            fatal("section overflows the 16-bit address space");
    }
    return b;
}

/** The symbols every program sees, interned once. */
struct Builtins {
    Symbol console{"__CONSOLE"}, done{"__DONE"}, pin{"__PIN"},
        cyclo{"__CYCLO"}, cychi{"__CYCHI"};
    Symbol data_base{"__sect_data_base"}, data_size{"__sect_data_size"},
        bss_base{"__sect_bss_base"}, bss_size{"__sect_bss_size"};
    Symbol start{"__start"};
};

const Builtins &
builtins()
{
    static const Builtins b;
    return b;
}

/** Every address-valued symbol before the labels, in definition
 *  order (a later one redefines an earlier). */
template <typename Fn>
void
forEachFixedSymbol(const WalkResult &walk, const Bases &bases,
                   const std::vector<std::pair<Symbol, std::uint16_t>> &pre,
                   Fn fn)
{
    namespace plat = swapram::platform;
    const Builtins &b = builtins();
    fn(b.console, plat::kMmioConsole);
    fn(b.done, plat::kMmioDone);
    fn(b.pin, plat::kMmioPin);
    fn(b.cyclo, plat::kMmioCycleLo);
    fn(b.cychi, plat::kMmioCycleHi);
    // Linker-style section-boundary symbols (resolved per relaxation
    // pass, like labels): generated runtimes reference .data/.bss
    // without knowing the layout — e.g. the checkpoint machinery
    // snapshots the sections crt0 reinitialises on every boot.
    fn(b.data_base, bases.base[2]);
    fn(b.data_size, static_cast<std::uint16_t>(walk.sizes[2]));
    fn(b.bss_base, bases.base[3]);
    fn(b.bss_size, static_cast<std::uint16_t>(walk.sizes[3]));
    for (const auto &[symbol, value] : pre)
        fn(symbol, value);
}

/** The line of the statement that defines the walk's label @p k:
 *  each label, .func and .endfunc defines one, in program order. */
int
labelLine(const Program &program, std::size_t k)
{
    for (const Statement &s : program.stmts) {
        const bool defines =
            s.kind == Statement::Kind::Label ||
            (s.kind == Statement::Kind::Directive &&
             (s.directive == Directive::Func ||
              s.directive == Directive::EndFunc));
        if (defines && k-- == 0)
            return s.line;
    }
    support::panic("labelLine: no statement defines the label");
}

/** Define this round's symbols in @p env: the fixed ones, then the
 *  labels of @p program at their based addresses, then the .equs. */
void
defineSymbols(SymbolEnv &env, const Program &program,
              const WalkResult &walk, const Bases &bases,
              const std::vector<std::pair<Symbol, std::uint16_t>> &pre)
{
    env.beginRound();
    forEachFixedSymbol(walk, bases, pre,
                       [&](Symbol s, std::uint16_t v) {
                           env.defineAddr(s, v);
                       });
    for (std::size_t k = 0; k < walk.labels.size(); ++k) {
        const PlacedSymbol &l = walk.labels[k];
        if (!env.defineAddr(l.symbol, bases.addr(l.place))) {
            fatal("line ", labelLine(program, k), ": duplicate symbol '",
                  l.symbol.str(), "'");
        }
    }
    for (const auto &[symbol, expr] : walk.equs)
        env.defineEqu(symbol, *expr);
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

/** Statements that replace a relaxed jump @p op. */
std::size_t
relaxedLength(isa::Op op)
{
    if (op == isa::Op::Jmp)
        return 1;
    return invertJump(op) ? 3 : 5;
}

/**
 * Replace every jump at @p sites (ascending statement indices) by its
 * long form, in one pass that moves each statement once:
 *   JMP t  ->  BR #t
 *   Jcc t  ->  J!cc skip; BR #t; skip:
 *   JN t   ->  JN take; JMP skip; take: BR #t; skip:
 * Skip labels are `..rx<n>`, numbered from @p counter starting at the
 * last site.
 */
void
relaxJumps(std::vector<Statement> &stmts, const std::vector<size_t> &sites,
           int &counter)
{
    std::size_t grow = 0;
    for (size_t i : sites)
        grow += relaxedLength(stmts[i].instr.op) - 1;
    std::size_t src_end = stmts.size();
    stmts.resize(src_end + grow);
    auto dst = stmts.begin() + static_cast<std::ptrdiff_t>(stmts.size());
    auto label = [&counter]() {
        return Symbol("..rx" + std::to_string(counter++));
    };
    for (auto it = sites.rbegin(); it != sites.rend(); ++it) {
        const size_t i = *it;
        const auto after = stmts.begin() + static_cast<std::ptrdiff_t>(i + 1);
        const auto end = stmts.begin() + static_cast<std::ptrdiff_t>(src_end);
        // Until a site that grows, the statements stay where they are
        // (a self-move would empty them).
        dst = dst == end ? after : std::move_backward(after, end, dst);
        const isa::Op op = stmts[i].instr.op;
        const int line = stmts[i].line;
        Expr target = std::move(stmts[i].instr.jump_target);
        const std::size_t n = relaxedLength(op);
        dst -= static_cast<std::ptrdiff_t>(n);
        if (op == isa::Op::Jmp) {
            dst[0] = Statement::makeInstr(brImm(std::move(target)), line);
        } else if (auto inv = invertJump(op)) {
            const Symbol skip = label();
            dst[0] = Statement::makeInstr(jump(*inv, Expr::sym(skip)), line);
            dst[1] = Statement::makeInstr(brImm(std::move(target)), line);
            dst[2] = Statement::makeLabel(skip, line);
        } else {
            const Symbol take = label();
            const Symbol skip = label();
            dst[0] = Statement::makeInstr(jump(isa::Op::Jn, Expr::sym(take)),
                                          line);
            dst[1] = Statement::makeInstr(jump(isa::Op::Jmp,
                                               Expr::sym(skip)),
                                          line);
            dst[2] = Statement::makeLabel(take, line);
            dst[3] = Statement::makeInstr(brImm(std::move(target)), line);
            dst[4] = Statement::makeLabel(skip, line);
        }
        src_end = i;
    }
}

} // namespace

std::uint16_t
instrSize(const AsmInstr &instr, int line)
{
    switch (isa::opFormat(instr.op)) {
      case isa::OpFormat::Jump:
        return 2;
      case isa::OpFormat::SingleOperand:
        if (instr.op == isa::Op::Reti)
            return 2;
        return 2 + operandExtBytes(*instr.dst, instr.byte, line);
      case isa::OpFormat::DoubleOperand: {
        // Source first: a bad literal is reported in operand order.
        const std::uint16_t src =
            operandExtBytes(*instr.src, instr.byte, line);
        return 2 + src + operandExtBytes(*instr.dst, instr.byte, line);
      }
    }
    support::panic("instrSize: bad format");
}

SymbolTable::const_iterator
SymbolTable::find(Symbol symbol) const
{
    if (symbol.empty() || slots_.empty())
        return entries_.end();
    const Slot &slot = slots_[slotOf(symbol.id())];
    return slot.id ? entries_.begin() + slot.entry : entries_.end();
}

std::uint32_t
SymbolTable::slotOf(std::uint32_t id) const
{
    const auto mask = static_cast<std::uint32_t>(slots_.size() - 1);
    std::uint32_t i = (id * 0x9E3779B1u) & mask;
    while (slots_[i].id && slots_[i].id != id)
        i = (i + 1) & mask;
    return i;
}

void
SymbolTable::reserve(std::size_t n)
{
    entries_.reserve(n);
    std::size_t capacity = 16;
    while (capacity < 2 * n)
        capacity *= 2;
    if (capacity <= slots_.size())
        return;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    for (const Slot &s : old) {
        if (s.id)
            slots_[slotOf(s.id)] = s;
    }
}

void
SymbolTable::set(Symbol symbol, std::uint16_t value)
{
    if (2 * (entries_.size() + 1) > slots_.size())
        reserve(2 * entries_.size() + 8);
    Slot &slot = slots_[slotOf(symbol.id())];
    if (slot.id) {
        entries_[slot.entry].second = value;
        return;
    }
    slot = {symbol.id(), static_cast<std::uint32_t>(entries_.size())};
    entries_.emplace_back(symbol.str(), value);
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
    // Intern every symbol the rounds define before the first one
    // sizes its table.
    const Builtins &builtin = builtins();
    std::vector<std::pair<Symbol, std::uint16_t>> predefined;
    predefined.reserve(layout.predefined.size());
    for (const auto &[name, value] : layout.predefined)
        predefined.emplace_back(Symbol(name), value);

    SymbolEnv &env = t_env;
    WalkResult walk;
    std::vector<size_t> to_relax;
    int relax_counter = 0;

    for (int iteration = 0;; ++iteration) {
        if (iteration > 64)
            fatal("jump relaxation did not converge");

        walkAddresses(work, walk);
        const Bases bases = resolveBases(walk, layout);
        defineSymbols(env, work, walk, bases, predefined);

        // Find every out-of-range jump, relax them all, and retry.
        to_relax.clear();
        for (size_t i = 0; i < work.stmts.size(); ++i) {
            const Statement &s = work.stmts[i];
            if (s.kind != Statement::Kind::Instr ||
                isa::opFormat(s.instr.op) != isa::OpFormat::Jump)
                continue;
            std::uint16_t target = toWord(
                evalExpr(s.instr.jump_target, env, s.line), s.line);
            if (!isa::jumpInRange(bases.addr(walk.places[i]), target))
                to_relax.push_back(i);
        }
        if (!to_relax.empty()) {
            relaxJumps(work.stmts, to_relax, relax_counter);
            continue;
        }

        // Stable: emit straight into the section buffers.
        AssembleResult out;
        out.stmt_addr.resize(work.stmts.size());
        std::array<std::vector<std::uint8_t>, kNumSections - 1> buf;
        for (int sec = 0; sec < kNumSections - 1; ++sec)
            buf[sec].assign(walk.sizes[sec], 0);

        for (size_t i = 0; i < work.stmts.size(); ++i) {
            const Statement &s = work.stmts[i];
            const Placement &place = walk.places[i];
            const std::uint16_t addr = bases.addr(place);
            out.stmt_addr[i] = addr;
            if (s.kind == Statement::Kind::Label)
                continue;
            // Only .text/.const/.data statements emit bytes (the walk
            // rejects data in .bss).
            std::uint8_t *at = nullptr;
            if (place.section != Section::Bss)
                at = buf[static_cast<int>(place.section)].data() +
                     place.offset;
            auto put_word = [&at](std::uint16_t v) {
                *at++ = static_cast<std::uint8_t>(v & 0xFF);
                *at++ = static_cast<std::uint8_t>(v >> 8);
            };
            if (s.kind == Statement::Kind::Instr) {
                std::uint16_t words[isa::kMaxInstrWords];
                const int n =
                    isa::encode(lowerInstr(s.instr, env, s.line), addr, words);
                for (int w = 0; w < n; ++w)
                    put_word(words[w]);
                continue;
            }
            switch (s.directive) {
              case Directive::Word:
                for (const Expr &arg : s.args)
                    put_word(toWord(evalExpr(arg, env, s.line), s.line));
                break;
              case Directive::Byte:
                for (const Expr &arg : s.args) {
                    std::int64_t v = evalExpr(arg, env, s.line);
                    if (v < -128 || v > 255) {
                        fatal("line ", s.line, ": byte value ", v,
                              " out of range");
                    }
                    *at++ = static_cast<std::uint8_t>(v & 0xFF);
                }
                break;
              case Directive::Ascii:
              case Directive::Asciz:
                for (char c : s.str)
                    *at++ = static_cast<std::uint8_t>(c);
                if (s.directive == Directive::Asciz)
                    *at = 0;
                break;
              default:
                break; // space/align are zero fill; others no bytes
            }
        }

        out.image.text = {bases.base[0], walk.sizes[0]};
        out.image.cnst = {bases.base[1], walk.sizes[1]};
        out.image.data = {bases.base[2], walk.sizes[2]};
        out.image.bss = {bases.base[3], walk.sizes[3]};
        for (int sec = 0; sec < kNumSections - 1; ++sec) {
            if (!buf[sec].empty())
                out.image.chunks.push_back(
                    {bases.base[sec], std::move(buf[sec])});
        }
        out.symbols.reserve(9 + predefined.size() + walk.labels.size());
        forEachFixedSymbol(walk, bases, predefined,
                           [&](Symbol s, std::uint16_t v) {
                               out.symbols.set(s, v);
                           });
        for (const PlacedSymbol &l : walk.labels)
            out.symbols.set(l.symbol, bases.addr(l.place));
        out.functions.reserve(walk.func_starts.size());
        for (size_t f = 0; f < walk.func_starts.size(); ++f) {
            const PlacedSymbol &start = walk.func_starts[f];
            FunctionInfo info;
            info.name = start.symbol.str();
            info.addr = bases.addr(start.place);
            info.size = static_cast<std::uint16_t>(
                walk.func_ends[f].offset - start.place.offset);
            out.functions.push_back(std::move(info));
        }
        auto entry_it = out.symbols.find(builtin.start);
        out.image.entry = entry_it != out.symbols.end()
                              ? entry_it->second
                              : bases.base[0];
        // Only now: the emission loop above reads the statements.
        out.relaxed = std::move(work);
        return out;
    }
}

} // namespace swapram::masm
