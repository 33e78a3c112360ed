/**
 * @file
 * The MSP430 execution core of the single-step oracle, and the ALU it
 * shares with the threaded tier's kernels.
 *
 * Every ALU and flag rule lives here exactly once, as free functions
 * that both tiers call:
 *   - fmt1Alu<OP>: each Format I op's result and N/Z/C/V, with
 *     fmt1Writes/fmt1Flags saying whether it stores and sets flags;
 *   - fmt2Alu<OP>: RRC, RRA, SWPB and SXT, with fmt2Flags, and
 *     fmt2Word for the two that ignore the B/W bit;
 *   - setF: the SR flag write;
 *   - flagIndex, kJumpTruth (jumpTruthTable) and jumpTaken: each
 *     conditional jump's condition as a 16-entry truth table over the
 *     flags.
 * ExecCore adds operand resolution and the memory accesses for the
 * single-step oracle (sim/cpu.cc): each access pays full bus dispatch
 * (region routing, MMIO devices, stall accounting, trace emission),
 * and every form the ISA decodes runs here.
 * The threaded tier's kernels resolve operands their own way
 * (pre-lowered cells and addresses) but compute every result, flag
 * and jump condition through the functions above, so the tiers cannot
 * disagree on the ALU; the differential suites then pin the
 * accounting, and check both tiers against an independent interpreter.
 * A form no kernel covers never reaches the threaded tier: its block
 * ends before it (sim/superblock.hh), and ExecCore runs it.
 */

#ifndef SWAPRAM_SIM_EXEC_HH
#define SWAPRAM_SIM_EXEC_HH

#include <array>
#include <cstdint>

#include "isa/instruction.hh"
#include "sim/bus.hh"
#include "support/logging.hh"

namespace swapram::sim {

/** Force inlining where GCC's per-unit budget would leave a hot helper
 *  out of line in the threaded tier's dispatch loop. */
#define SWAPRAM_INLINE inline __attribute__((always_inline))

/** The Format I ops, in Op order. */
#define SWAPRAM_FMT1_OPS(X)                                              \
    X(Mov) X(Add) X(Addc) X(Subc) X(Sub) X(Cmp) X(Dadd) X(Bit) X(Bic)    \
    X(Bis) X(Xor) X(And)

/** An ALU outcome: the result (masked to the operand size) and the
 *  flags the op would set. */
struct AluR {
    std::uint32_t r;
    bool n, z, c, v;
};

/** Write an outcome's N, Z, C and V into @p sr without a branch per
 *  flag. */
SWAPRAM_INLINE void
setF(std::uint16_t &sr, const AluR &o)
{
    namespace b = isa::sr;
    static_assert(b::kC == 1u << 0 && b::kZ == 1u << 1 &&
                      b::kN == 1u << 2 && b::kV == 1u << 8,
                  "the flag bits are built from these positions");
    constexpr std::uint16_t kFlags = b::kN | b::kZ | b::kC | b::kV;
    unsigned f = unsigned{o.c} | unsigned{o.z} << 1 | unsigned{o.n} << 2 |
                 unsigned{o.v} << 8;
    sr = static_cast<std::uint16_t>((sr & ~kFlags) | f);
}

/** Format I ops that write the destination / that set flags. */
constexpr bool
fmt1Writes(isa::Op op)
{
    return op != isa::Op::Cmp && op != isa::Op::Bit;
}
constexpr bool
fmt1Flags(isa::Op op)
{
    return op != isa::Op::Mov && op != isa::Op::Bic && op != isa::Op::Bis;
}

/** The Format I ALU: result and flags of @p OP on operands already
 *  masked to the size (@p mask 0xFF for .B, with @p msb its sign bit),
 *  with the carry in taken from @p sr_val. Callers store the result
 *  before they set the flags, which matters when the destination is
 *  SR. */
template <isa::Op OP>
SWAPRAM_INLINE AluR
fmt1Alu(std::uint32_t src, std::uint32_t dst, std::uint16_t sr_val,
        std::uint32_t mask, std::uint32_t msb)
{
    using isa::Op;
    namespace sr = isa::sr;
    AluR o{0, false, false, false, false};
    if constexpr (OP == Op::Mov) {
        o.r = src & mask;
        return o;
    } else if constexpr (OP == Op::Add || OP == Op::Addc ||
                         OP == Op::Sub || OP == Op::Subc ||
                         OP == Op::Cmp) {
        std::uint32_t a = src;
        std::uint32_t cin = 0;
        if constexpr (OP == Op::Add) {
            cin = 0;
        } else if constexpr (OP == Op::Addc) {
            cin = (sr_val & sr::kC) ? 1 : 0;
        } else if constexpr (OP == Op::Sub || OP == Op::Cmp) {
            a = (~src) & mask;
            cin = 1;
        } else { // Subc
            a = (~src) & mask;
            cin = (sr_val & sr::kC) ? 1 : 0;
        }
        std::uint32_t sum = a + dst + cin;
        o.r = sum & mask;
        o.c = sum > mask;
        o.z = o.r == 0;
        o.n = (o.r & msb) != 0;
        o.v = ((~(a ^ dst)) & (a ^ o.r) & msb) != 0;
        return o;
    } else if constexpr (OP == Op::Dadd) {
        // Nibble-serial BCD addition with carry in.
        std::uint32_t carry = (sr_val & sr::kC) ? 1 : 0;
        std::uint32_t r = 0;
        int nibbles = mask == 0xFF ? 2 : 4;
        for (int i = 0; i < nibbles; ++i) {
            std::uint32_t a = (src >> (4 * i)) & 0xF;
            std::uint32_t b = (dst >> (4 * i)) & 0xF;
            std::uint32_t d = a + b + carry;
            carry = d >= 10 ? 1 : 0;
            if (carry)
                d -= 10;
            r |= (d & 0xF) << (4 * i);
        }
        o.r = r;
        o.n = (r & msb) != 0;
        o.z = r == 0;
        o.c = carry != 0;
        return o;
    } else if constexpr (OP == Op::Bit || OP == Op::And) {
        o.r = src & dst;
        o.n = (o.r & msb) != 0;
        o.z = o.r == 0;
        o.c = o.r != 0;
        return o;
    } else if constexpr (OP == Op::Bic) {
        o.r = dst & ~src & mask;
        return o;
    } else if constexpr (OP == Op::Bis) {
        o.r = dst | src;
        return o;
    } else { // Xor
        static_assert(OP == Op::Xor, "fmt1Alu: not a Format I op");
        o.r = (dst ^ src) & mask;
        o.n = (o.r & msb) != 0;
        o.z = o.r == 0;
        o.c = o.r != 0;
        o.v = ((src & msb) != 0) && ((dst & msb) != 0);
        return o;
    }
}

/** SWPB and SXT are word ops whatever their B/W bit says. */
constexpr bool
fmt2Word(isa::Op op)
{
    return op == isa::Op::Swpb || op == isa::Op::Sxt;
}

/** Format II ALU ops that set flags (SWPB sets none). */
constexpr bool
fmt2Flags(isa::Op op)
{
    return op != isa::Op::Swpb;
}

/** The Format II ALU: RRC, RRA, SWPB or SXT of @p v, masked to the
 *  size (@p mask and @p msb as for fmt1Alu, 0xFFFF and 0x8000 for the
 *  fmt2Word ops), with the carry in taken from @p sr_val. */
template <isa::Op OP>
SWAPRAM_INLINE AluR
fmt2Alu(std::uint32_t v, std::uint16_t sr_val, std::uint32_t mask,
        std::uint32_t msb)
{
    using isa::Op;
    AluR o{0, false, false, false, false};
    if constexpr (OP == Op::Swpb) {
        o.r = ((v >> 8) | (v << 8)) & 0xFFFF;
        return o;
    } else if constexpr (OP == Op::Sxt) {
        const std::uint32_t lo = v & 0xFF;
        o.r = (lo & 0x80) ? (lo | 0xFF00) : lo;
        o.n = (o.r & 0x8000) != 0;
        o.z = o.r == 0;
        o.c = o.r != 0;
        return o;
    } else {
        static_assert(OP == Op::Rrc || OP == Op::Rra,
                      "fmt2Alu: not an ALU Format II op");
        const std::uint32_t top =
            OP == Op::Rrc ? ((sr_val & isa::sr::kC) ? msb : 0) : (v & msb);
        o.r = ((v >> 1) | top) & mask;
        o.n = (o.r & msb) != 0;
        o.z = o.r == 0;
        o.c = (v & 1) != 0;
        return o;
    }
}

/** The flags as a 4-bit index, C | Z << 1 | N << 2 | V << 3: the bit
 *  of a conditional jump's truth table that says whether it is
 *  taken. */
SWAPRAM_INLINE unsigned
flagIndex(const AluR &o)
{
    return unsigned{o.c} | unsigned{o.z} << 1 | unsigned{o.n} << 2 |
           unsigned{o.v} << 3;
}

/** The flag index of the flags in @p sr. */
SWAPRAM_INLINE unsigned
flagIndex(std::uint16_t sr)
{
    return (sr & 7u) | ((sr >> 5) & 8u);
}

/** True for the conditional jumps (every Jump-format op but JMP). */
constexpr bool
isCondJump(isa::Op o)
{
    using isa::Op;
    static_assert(static_cast<int>(Op::Jl) - static_cast<int>(Op::Jne) ==
                          6 &&
                      static_cast<int>(Op::Jmp) ==
                          static_cast<int>(Op::Jl) + 1,
                  "the seven conditional jumps are one run, JMP after it");
    return o >= Op::Jne && o <= Op::Jl;
}

/** A conditional jump's truth table: bit flagIndex(flags) is set when
 *  the jump is taken with those flags. */
constexpr std::uint16_t
jumpTruthTable(isa::Op o)
{
    using isa::Op;
    std::uint16_t tt = 0;
    for (unsigned f = 0; f < 16; ++f) {
        const bool c = f & 1, z = f & 2, n = f & 4, v = f & 8;
        bool taken = false;
        switch (o) {
          case Op::Jne: taken = !z; break;
          case Op::Jeq: taken = z; break;
          case Op::Jnc: taken = !c; break;
          case Op::Jc: taken = c; break;
          case Op::Jn: taken = n; break;
          case Op::Jge: taken = n == v; break;
          case Op::Jl: taken = n != v; break;
          default: break;
        }
        if (taken)
            tt = static_cast<std::uint16_t>(tt | 1u << f);
    }
    return tt;
}

/** The seven truth tables, indexed by (op - Op::Jne). */
inline constexpr std::array<std::uint16_t, 7> kJumpTruth = {
    jumpTruthTable(isa::Op::Jne), jumpTruthTable(isa::Op::Jeq),
    jumpTruthTable(isa::Op::Jnc), jumpTruthTable(isa::Op::Jc),
    jumpTruthTable(isa::Op::Jn),  jumpTruthTable(isa::Op::Jge),
    jumpTruthTable(isa::Op::Jl)};
static_assert(kJumpTruth[0] == 0x3333 && kJumpTruth[5] == 0xF00F,
              "JNE is taken with Z clear, JGE with N equal to V");

/** True when the conditional jump @p o is taken with the flags in
 *  @p sr_val. */
SWAPRAM_INLINE bool
jumpTaken(isa::Op o, std::uint16_t sr_val)
{
    const auto i = static_cast<std::size_t>(static_cast<int>(o) -
                                            static_cast<int>(isa::Op::Jne));
    return (kJumpTruth[i] >> flagIndex(sr_val)) & 1u;
}

/** Register-file + bus instruction executor. Callers must have set
 *  PC past the full instruction (fetch semantics) before execute(). */
class ExecCore
{
  public:
    ExecCore(std::array<std::uint16_t, 16> &regs, Bus &bus)
        : regs_(regs), bus_(bus)
    {
    }

    void
    execute(const isa::Instr &instr)
    {
        switch (isa::opFormat(instr.op)) {
          case isa::OpFormat::DoubleOperand:
            executeFormatI(instr);
            return;
          case isa::OpFormat::SingleOperand:
            executeFormatII(instr);
            return;
          case isa::OpFormat::Jump:
            executeJump(instr);
            return;
        }
    }

    void
    push16(std::uint16_t value)
    {
        regs_[1] = static_cast<std::uint16_t>(regs_[1] - 2);
        bus_.write16(regs_[1], value);
    }

    std::uint16_t
    pop16()
    {
        std::uint16_t value = bus_.read16(regs_[1], AccessKind::Read);
        regs_[1] = static_cast<std::uint16_t>(regs_[1] + 2);
        return value;
    }

  private:
    /** Resolved operand location. */
    struct Loc {
        enum class Kind : std::uint8_t { Reg, Mem, Imm } kind;
        isa::Reg reg;
        std::uint16_t addr;
        std::uint16_t imm;
    };

    Loc
    resolve(const isa::Operand &op, bool byte)
    {
        using isa::Mode;
        using isa::Reg;
        switch (op.mode) {
          case Mode::Register:
            return {Loc::Kind::Reg, op.reg, 0, 0};
          case Mode::Immediate:
            return {Loc::Kind::Imm, Reg::PC, 0, op.value};
          case Mode::Indexed: {
            std::uint16_t addr = static_cast<std::uint16_t>(
                regs_[isa::regIndex(op.reg)] + op.value);
            return {Loc::Kind::Mem, op.reg, addr, 0};
          }
          case Mode::Symbolic:
          case Mode::Absolute:
            return {Loc::Kind::Mem, Reg::PC, op.value, 0};
          case Mode::Indirect:
            return {Loc::Kind::Mem, op.reg,
                    regs_[isa::regIndex(op.reg)], 0};
          case Mode::IndirectInc: {
            std::uint8_t idx = isa::regIndex(op.reg);
            std::uint16_t addr = regs_[idx];
            regs_[idx] = static_cast<std::uint16_t>(addr + (byte ? 1 : 2));
            return {Loc::Kind::Mem, op.reg, addr, 0};
          }
        }
        support::panic("ExecCore::resolve: bad mode");
    }

    std::uint16_t
    loadLoc(const Loc &loc, bool byte)
    {
        switch (loc.kind) {
          case Loc::Kind::Reg: {
            std::uint16_t v = regs_[isa::regIndex(loc.reg)];
            return byte ? static_cast<std::uint16_t>(v & 0xFF) : v;
          }
          case Loc::Kind::Imm:
            return byte ? static_cast<std::uint16_t>(loc.imm & 0xFF)
                        : loc.imm;
          case Loc::Kind::Mem:
            if (byte)
                return bus_.read8(loc.addr, AccessKind::Read);
            return bus_.read16(loc.addr, AccessKind::Read);
        }
        support::panic("ExecCore::loadLoc: bad kind");
    }

    void
    storeLoc(const Loc &loc, bool byte, std::uint16_t value)
    {
        using isa::Reg;
        switch (loc.kind) {
          case Loc::Kind::Reg: {
            if (loc.reg == Reg::CG2)
                return; // writes to the constant generator are discarded
            std::uint8_t idx = isa::regIndex(loc.reg);
            // Byte operations on a register clear the upper byte.
            regs_[idx] = byte ? static_cast<std::uint16_t>(value & 0xFF)
                              : value;
            return;
          }
          case Loc::Kind::Mem:
            if (byte)
                bus_.write8(loc.addr,
                            static_cast<std::uint8_t>(value & 0xFF));
            else
                bus_.write16(loc.addr, value);
            return;
          case Loc::Kind::Imm:
            support::panic("ExecCore::storeLoc: store to immediate");
        }
    }

    void
    executeFormatI(const isa::Instr &instr)
    {
        const bool byte = instr.byte;
        const std::uint32_t mask = byte ? 0xFFu : 0xFFFFu;
        const std::uint32_t msb = byte ? 0x80u : 0x8000u;

        Loc src_loc = resolve(instr.src, byte);
        std::uint32_t src = loadLoc(src_loc, byte);
        Loc dst_loc = resolve(instr.dst, byte);
        std::uint32_t dst =
            instr.op != isa::Op::Mov ? loadLoc(dst_loc, byte) : 0;

        AluR o;
        switch (instr.op) {
#define X(N)                                                             \
          case isa::Op::N:                                               \
            o = fmt1Alu<isa::Op::N>(src, dst, regs_[2], mask, msb);      \
            break;
            SWAPRAM_FMT1_OPS(X)
#undef X
          default:
            support::panic("executeFormatI: bad op");
        }
        if (fmt1Writes(instr.op))
            storeLoc(dst_loc, byte, static_cast<std::uint16_t>(o.r));
        if (fmt1Flags(instr.op))
            setF(regs_[2], o);
    }

    void
    executeFormatII(const isa::Instr &instr)
    {
        using isa::Op;
        const bool byte = instr.byte;

        if (instr.op == Op::Reti) {
            regs_[2] = pop16();
            regs_[0] = pop16();
            return;
        }

        Loc loc = resolve(instr.dst, byte);

        switch (instr.op) {
          case Op::Push: {
            std::uint16_t v = loadLoc(loc, byte);
            regs_[1] = static_cast<std::uint16_t>(regs_[1] - 2);
            if (byte)
                bus_.write8(regs_[1], static_cast<std::uint8_t>(v));
            else
                bus_.write16(regs_[1], v);
            return;
          }
          case Op::Call: {
            std::uint16_t target = loadLoc(loc, false);
            push16(regs_[0]);
            regs_[0] = target;
            return;
          }
          default:
            break;
        }

        // RRC, RRA, SWPB, SXT: rewrite the operand in place.
        const bool b = byte && !fmt2Word(instr.op);
        const std::uint32_t mask = b ? 0xFFu : 0xFFFFu;
        const std::uint32_t msb = b ? 0x80u : 0x8000u;
        std::uint32_t v = loadLoc(loc, b);
        AluR o;
        switch (instr.op) {
          case Op::Rrc: o = fmt2Alu<Op::Rrc>(v, regs_[2], mask, msb); break;
          case Op::Rra: o = fmt2Alu<Op::Rra>(v, regs_[2], mask, msb); break;
          case Op::Swpb: o = fmt2Alu<Op::Swpb>(v, regs_[2], mask, msb); break;
          case Op::Sxt: o = fmt2Alu<Op::Sxt>(v, regs_[2], mask, msb); break;
          default:
            support::panic("executeFormatII: bad op");
        }
        storeLoc(loc, b, static_cast<std::uint16_t>(o.r));
        if (fmt2Flags(instr.op))
            setF(regs_[2], o);
    }

    void
    executeJump(const isa::Instr &instr)
    {
        if (instr.op == isa::Op::Jmp || jumpTaken(instr.op, regs_[2]))
            regs_[0] = instr.jump_target;
    }

    std::array<std::uint16_t, 16> &regs_;
    Bus &bus_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_EXEC_HH
