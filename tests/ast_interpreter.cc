#include "ast_interpreter.hh"

#include <unordered_map>

#include "support/logging.hh"
#include "support/platform.hh"

namespace swapram::test {

namespace {

using masm::AsmInstr;
using masm::AsmOperand;
using masm::Expr;
using masm::OperKind;
using masm::Statement;
using support::fatal;

/** Interpreter state. */
struct State {
    std::array<std::uint16_t, 16> regs{};
    std::vector<std::uint8_t> mem = std::vector<std::uint8_t>(0x10000, 0);
    bool done = false;
    std::string console;

    bool flag(std::uint16_t bit) const { return (regs[2] & bit) != 0; }
    void
    setFlag(std::uint16_t bit, bool value)
    {
        if (value)
            regs[2] |= bit;
        else
            regs[2] &= static_cast<std::uint16_t>(~bit);
    }
    void
    setNzcv(bool n, bool z, bool c, bool v)
    {
        setFlag(0x4, n);
        setFlag(0x2, z);
        setFlag(0x1, c);
        setFlag(0x100, v);
    }

    std::uint16_t
    read16(std::uint16_t addr)
    {
        if (addr & 1)
            fatal("interp: unaligned word read");
        return static_cast<std::uint16_t>(
            mem[addr] | (mem[static_cast<std::uint16_t>(addr + 1)] << 8));
    }
    std::uint8_t read8(std::uint16_t addr) { return mem[addr]; }
    void
    write16(std::uint16_t addr, std::uint16_t v)
    {
        if (addr & 1)
            fatal("interp: unaligned word write");
        if (addr == platform::kMmioDone) {
            done = true;
            return;
        }
        if (addr == platform::kMmioConsole) {
            console += static_cast<char>(v & 0xFF);
            return;
        }
        mem[addr] = static_cast<std::uint8_t>(v & 0xFF);
        mem[static_cast<std::uint16_t>(addr + 1)] =
            static_cast<std::uint8_t>(v >> 8);
    }
    void
    write8(std::uint16_t addr, std::uint8_t v)
    {
        if ((addr & ~1) == platform::kMmioDone) {
            done = true;
            return;
        }
        if ((addr & ~1) == platform::kMmioConsole) {
            console += static_cast<char>(v);
            return;
        }
        mem[addr] = v;
    }
};

/** Evaluate a symbolic expression against the resolved symbol table. */
std::int64_t
evalExpr(const Expr &e, const masm::SymbolTable &symbols)
{
    switch (e.kind()) {
      case Expr::Kind::Number:
        return e.number();
      case Expr::Kind::Symbol: {
        auto it = symbols.find(e.symbolId());
        if (it == symbols.end())
            fatal("interp: undefined symbol ", e.symbol());
        return it->second;
      }
      case Expr::Kind::Neg:
        return -evalExpr(e.operand(), symbols);
      default: {
        std::int64_t l = evalExpr(e.lhs(), symbols);
        std::int64_t r = evalExpr(e.rhs(), symbols);
        switch (e.kind()) {
          case Expr::Kind::Add: return l + r;
          case Expr::Kind::Sub: return l - r;
          case Expr::Kind::Mul: return l * r;
          case Expr::Kind::Div: return r ? l / r : 0;
          case Expr::Kind::ShiftLeft: return l << (r & 63);
          case Expr::Kind::ShiftRight:
            return static_cast<std::int64_t>(
                static_cast<std::uint64_t>(l) >> (r & 63));
          case Expr::Kind::And: return l & r;
          case Expr::Kind::Or: return l | r;
          default: fatal("interp: bad expr");
        }
      }
    }
}

/** A resolved operand: register, memory address, or immediate. */
struct Place {
    enum class Kind { Reg, Mem, Imm } kind;
    int reg = 0;
    std::uint16_t addr = 0;
    std::uint16_t imm = 0;
};

} // namespace

InterpResult
interpret(const masm::AssembleResult &assembled, std::uint16_t stack_top,
          std::uint64_t max_steps)
{
    const masm::Program &prog = assembled.relaxed;
    const auto &symbols = assembled.symbols;

    // Map instruction addresses to statement indices.
    std::unordered_map<std::uint16_t, std::size_t> addr_to_stmt;
    for (std::size_t i = 0; i < prog.stmts.size(); ++i) {
        if (prog.stmts[i].kind == Statement::Kind::Instr)
            addr_to_stmt.emplace(assembled.stmt_addr[i], i);
    }

    State st;
    for (const masm::Chunk &chunk : assembled.image.chunks) {
        for (std::size_t i = 0; i < chunk.bytes.size(); ++i)
            st.mem[static_cast<std::uint16_t>(chunk.base + i)] =
                chunk.bytes[i];
    }
    st.regs[0] = assembled.image.entry;
    st.regs[1] = stack_top;

    auto stmt_of = [&](std::uint16_t addr) -> std::size_t {
        auto it = addr_to_stmt.find(addr);
        if (it == addr_to_stmt.end())
            fatal("interp: control reached non-instruction address ",
                  addr);
        return it->second;
    };

    InterpResult out;
    std::size_t ip = stmt_of(assembled.image.entry);

    while (!st.done && out.steps < max_steps) {
        const Statement &s = prog.stmts[ip];
        const AsmInstr &in = s.instr;
        ++out.steps;
        std::uint16_t iaddr = assembled.stmt_addr[ip];
        std::uint16_t next_addr = static_cast<std::uint16_t>(
            iaddr + masm::instrSize(in));
        std::size_t next_ip = ip + 1;
        // Skip labels/directives when falling through.
        auto advance = [&](std::size_t from) {
            std::size_t j = from;
            while (j < prog.stmts.size() &&
                   prog.stmts[j].kind != Statement::Kind::Instr) {
                ++j;
            }
            if (j >= prog.stmts.size())
                fatal("interp: fell off program end");
            return j;
        };

        const bool byte = in.byte;
        const std::uint32_t mask = byte ? 0xFF : 0xFFFF;
        const std::uint32_t msb = byte ? 0x80 : 0x8000;

        auto resolve = [&](const AsmOperand &op) -> Place {
            switch (op.kind) {
              case OperKind::Register:
                return {Place::Kind::Reg, isa::regIndex(op.reg), 0, 0};
              case OperKind::Immediate:
                return {Place::Kind::Imm, 0, 0,
                        static_cast<std::uint16_t>(
                            evalExpr(op.expr, symbols) & 0xFFFF)};
              case OperKind::Indexed:
                return {Place::Kind::Mem, 0,
                        static_cast<std::uint16_t>(
                            st.regs[isa::regIndex(op.reg)] +
                            (evalExpr(op.expr, symbols) & 0xFFFF)),
                        0};
              case OperKind::SymbolicMem:
              case OperKind::Absolute:
                return {Place::Kind::Mem, 0,
                        static_cast<std::uint16_t>(
                            evalExpr(op.expr, symbols) & 0xFFFF),
                        0};
              case OperKind::Indirect:
                return {Place::Kind::Mem, 0,
                        st.regs[isa::regIndex(op.reg)], 0};
              case OperKind::IndirectInc: {
                int r = isa::regIndex(op.reg);
                Place p{Place::Kind::Mem, 0, st.regs[r], 0};
                st.regs[r] = static_cast<std::uint16_t>(
                    st.regs[r] + (byte ? 1 : 2));
                return p;
              }
            }
            fatal("interp: bad operand kind");
        };
        auto load = [&](const Place &p) -> std::uint16_t {
            switch (p.kind) {
              case Place::Kind::Reg: {
                std::uint16_t v = st.regs[p.reg];
                // Reading PC yields the next instruction address.
                if (p.reg == 0)
                    v = next_addr;
                return byte ? static_cast<std::uint16_t>(v & 0xFF) : v;
              }
              case Place::Kind::Imm:
                return byte ? static_cast<std::uint16_t>(p.imm & 0xFF)
                            : p.imm;
              case Place::Kind::Mem:
                return byte ? st.read8(p.addr) : st.read16(p.addr);
            }
            fatal("interp: bad place");
        };
        bool wrote_pc = false;
        auto store = [&](const Place &p, std::uint16_t v) {
            switch (p.kind) {
              case Place::Kind::Reg:
                if (p.reg == 3)
                    return; // constant generator: discarded
                if (p.reg == 0) {
                    wrote_pc = true;
                    next_ip = stmt_of(v);
                    return;
                }
                st.regs[p.reg] =
                    byte ? static_cast<std::uint16_t>(v & 0xFF) : v;
                return;
              case Place::Kind::Mem:
                if (byte)
                    st.write8(p.addr, static_cast<std::uint8_t>(v));
                else
                    st.write16(p.addr, v);
                return;
              case Place::Kind::Imm:
                fatal("interp: store to immediate");
            }
        };
        auto push = [&](std::uint16_t v) {
            st.regs[1] = static_cast<std::uint16_t>(st.regs[1] - 2);
            st.write16(st.regs[1], v);
        };
        auto pop = [&]() {
            std::uint16_t v = st.read16(st.regs[1]);
            st.regs[1] = static_cast<std::uint16_t>(st.regs[1] + 2);
            return v;
        };

        using isa::Op;
        switch (isa::opFormat(in.op)) {
          case isa::OpFormat::Jump: {
            bool taken = false;
            bool n = st.flag(0x4), z = st.flag(0x2), c = st.flag(0x1),
                 v = st.flag(0x100);
            switch (in.op) {
              case Op::Jne: taken = !z; break;
              case Op::Jeq: taken = z; break;
              case Op::Jnc: taken = !c; break;
              case Op::Jc: taken = c; break;
              case Op::Jn: taken = n; break;
              case Op::Jge: taken = n == v; break;
              case Op::Jl: taken = n != v; break;
              case Op::Jmp: taken = true; break;
              default: fatal("interp: bad jump");
            }
            if (taken) {
                next_ip = stmt_of(static_cast<std::uint16_t>(
                    evalExpr(in.jump_target, symbols) & 0xFFFF));
                wrote_pc = true;
            }
            break;
          }
          case isa::OpFormat::SingleOperand: {
            if (in.op == Op::Reti) {
                st.regs[2] = pop();
                next_ip = stmt_of(pop());
                wrote_pc = true;
                break;
            }
            Place p = resolve(*in.dst);
            switch (in.op) {
              case Op::Rrc: {
                std::uint32_t v0 = load(p);
                std::uint32_t r =
                    ((v0 >> 1) | (st.flag(0x1) ? msb : 0)) & mask;
                store(p, static_cast<std::uint16_t>(r));
                st.setNzcv((r & msb) != 0, r == 0, (v0 & 1) != 0,
                           false);
                break;
              }
              case Op::Rra: {
                std::uint32_t v0 = load(p);
                std::uint32_t r = ((v0 >> 1) | (v0 & msb)) & mask;
                store(p, static_cast<std::uint16_t>(r));
                st.setNzcv((r & msb) != 0, r == 0, (v0 & 1) != 0,
                           false);
                break;
              }
              case Op::Swpb: {
                std::uint16_t v0 = load(p);
                store(p, static_cast<std::uint16_t>((v0 >> 8) |
                                                    (v0 << 8)));
                break;
              }
              case Op::Sxt: {
                std::uint16_t v0 = load(p);
                std::uint16_t r = static_cast<std::uint16_t>(
                    static_cast<std::int16_t>(
                        static_cast<std::int8_t>(v0 & 0xFF)));
                store(p, r);
                st.setNzcv((r & 0x8000) != 0, r == 0, r != 0, false);
                break;
              }
              case Op::Push: {
                std::uint16_t v0 = load(p);
                st.regs[1] =
                    static_cast<std::uint16_t>(st.regs[1] - 2);
                if (byte)
                    st.write8(st.regs[1],
                              static_cast<std::uint8_t>(v0));
                else
                    st.write16(st.regs[1], v0);
                break;
              }
              case Op::Call: {
                std::uint16_t target = load(p);
                push(next_addr);
                next_ip = stmt_of(target);
                wrote_pc = true;
                break;
              }
              default:
                fatal("interp: bad format-II op");
            }
            break;
          }
          case isa::OpFormat::DoubleOperand: {
            Place ps = resolve(*in.src);
            std::uint32_t a = load(ps);
            Place pd = resolve(*in.dst);
            std::uint32_t d =
                in.op == Op::Mov ? 0 : load(pd);
            auto adder = [&](std::uint32_t x, std::uint32_t y,
                             std::uint32_t cin, bool wb) {
                std::uint32_t sum = x + y + cin;
                std::uint32_t r = sum & mask;
                bool v = ((~(x ^ y)) & (x ^ r) & msb) != 0;
                if (wb)
                    store(pd, static_cast<std::uint16_t>(r));
                st.setNzcv((r & msb) != 0, r == 0, sum > mask, v);
            };
            switch (in.op) {
              case Op::Mov:
                store(pd, static_cast<std::uint16_t>(a));
                break;
              case Op::Add: adder(a, d, 0, true); break;
              case Op::Addc:
                adder(a, d, st.flag(0x1) ? 1 : 0, true);
                break;
              case Op::Sub: adder(~a & mask, d, 1, true); break;
              case Op::Subc:
                adder(~a & mask, d, st.flag(0x1) ? 1 : 0, true);
                break;
              case Op::Cmp: adder(~a & mask, d, 1, false); break;
              case Op::Dadd: {
                std::uint32_t carry = st.flag(0x1) ? 1 : 0;
                std::uint32_t r = 0;
                int nibbles = byte ? 2 : 4;
                for (int k = 0; k < nibbles; ++k) {
                    std::uint32_t nib = ((a >> (4 * k)) & 0xF) +
                                        ((d >> (4 * k)) & 0xF) + carry;
                    carry = nib >= 10;
                    if (carry)
                        nib -= 10;
                    r |= (nib & 0xF) << (4 * k);
                }
                store(pd, static_cast<std::uint16_t>(r));
                st.setNzcv((r & msb) != 0, r == 0, carry != 0, false);
                break;
              }
              case Op::Bit:
              case Op::And: {
                std::uint32_t r = a & d;
                if (in.op == Op::And)
                    store(pd, static_cast<std::uint16_t>(r));
                st.setNzcv((r & msb) != 0, r == 0, r != 0, false);
                break;
              }
              case Op::Bic:
                store(pd, static_cast<std::uint16_t>(d & ~a & mask));
                break;
              case Op::Bis:
                store(pd, static_cast<std::uint16_t>(d | a));
                break;
              case Op::Xor: {
                std::uint32_t r = (a ^ d) & mask;
                bool v = (a & msb) && (d & msb);
                store(pd, static_cast<std::uint16_t>(r));
                st.setNzcv((r & msb) != 0, r == 0, r != 0, v);
                break;
              }
              default:
                fatal("interp: bad format-I op");
            }
            break;
          }
        }

        ip = wrote_pc ? next_ip : advance(next_ip);
    }

    out.done = st.done;
    out.regs = st.regs;
    out.memory = std::move(st.mem);
    out.console = std::move(st.console);
    return out;
}

} // namespace swapram::test
