#include "sim/threaded.hh"

#include "isa/cycles.hh"
#include "isa/disasm.hh"
#include "sim/exec.hh"
#include "sim/fram_timing.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "support/strings.hh"

#include <algorithm>
#include <cstring>

namespace swapram::sim {

using isa::Mode;
using isa::Op;
using isa::Operand;

/**
 * One lowered instruction: a kernel label plus flattened operands and
 * the static accounting it contributes. Fields are family-specific:
 *   - sp/dp: source/destination cells. For register and immediate
 *     operands these are native uint16_t cells (the register file, or
 *     the op's own `a` field); for static memory operands they point
 *     into the flat simulated memory (little-endian bytes).
 *   - a/b: immediate value (the cell sp may point at), jump target,
 *     or the static source/destination address.
 *   - runs/fa0/fa1/fm0: dynamic FRAM fetch probes. Three sequential
 *     fetch words span at most two 8-byte lines, so a fetch stream
 *     collapses to at most two hardware-cache probes; same-line
 *     followers are guaranteed hits with zero stall (a hit on the
 *     just-used way does not move the LRU). The statics count every
 *     fetch word as a hit with its hit stall; a probe that misses adds
 *     its miss-minus-hit stall (fm0 for the first) and one miss fix.
 *   - probe/d0_miss: one dynamic data-read probe for a static FRAM
 *     address with the hardware cache on, booked the same way: a hit
 *     in the statics, d0_miss more stall on a miss. The line-contention
 *     component of the stall is static (the fetch stream's addresses
 *     are fixed), so both outcomes' stalls are known at lowering.
 *   - d_*: this op's share of the block's static totals, subtracted
 *     back on the rare bail-out walk over the unexecuted suffix.
 */
struct alignas(64) TOp {
    const void *h = nullptr;
    const std::uint8_t *sp = nullptr;
    std::uint8_t *dp = nullptr;
    std::uint16_t next_pc = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0; ///< static dst addr
    std::uint16_t mask = 0xFFFF; ///< conditional jump: truth table
    std::uint16_t msb = 0x8000;
    std::uint16_t fa0 = 0, fa1 = 0;
    std::uint16_t fm0 = 0; ///< first fetch probe's miss-minus-hit stall
    std::uint16_t d0_miss = 0;
    std::uint16_t lastline = 0;
    std::uint16_t pc = 0; ///< the op's own address
    /** Side exit: the base and stall totals of the ops after it. */
    std::uint16_t xbase = 0, xstall = 0;
    std::uint8_t byte = 0;
    std::uint8_t runs = 0;
    std::uint8_t probe = 0;
    std::uint8_t ra = 0;  ///< dyn src reg index
    std::uint8_t rd = 0;  ///< dyn dst reg index; kPcRmw: the op's kernel
    std::uint8_t inc = 0; ///< @Rn+ post-increment amount
    std::uint8_t smc = 0; ///< static store into the block's own code
    std::uint8_t chain = 0; ///< FRAM fetch words seeding data contention
    std::uint32_t taken = 0; ///< side exit: takes since the last fold
};
static_assert(sizeof(TOp) == 64, "TOp must stay one cache line");
static_assert(fram::accessStall(false, platform::kFramWaitStates24MHz,
                                fram::kContentionStall) <= 0xFFFF,
              "per-probe stalls must fit TOp's 16-bit stall fields");

/** Accumulator indices: one contiguous order shared by the dispatch
 *  context's dynamic accumulators (u64) and each block's static totals
 *  (u32). Base and stall come first: block entry adds only those two,
 *  and the chain-end fold applies the rest with one loop. */
enum AccIdx {
    kAccBase = 0,
    kAccStall,
    kAccSramFetch,
    kAccSramRead,
    kAccSramWrite,
    kAccFramFetch,
    kAccFramRead,
    kAccFramWrite,
    kAccHits,
    kAccMisses,
    kAccCode,
    kAccData,
    kAccOwner0, // + kNumOwners entries
    kNumAcc = kAccOwner0 + kNumOwners
};

/** Per-op static accounting deltas, only touched on a mid-block
 *  bail-out (the suffix walk) and at lowering time — kept out of TOp
 *  so the dispatch loop streams one cache line per op. */
struct TDelta {
    std::uint32_t d_stall = 0;
    std::uint8_t d_base = 0, d_fetch = 0, d_code = 0, d_data = 0;
    std::uint8_t d_sram_r = 0, d_sram_w = 0;
    std::uint8_t d_fram_r = 0, d_fram_w = 0;
    std::uint8_t d_hits = 0;
};

static_assert(kNumAcc * sizeof(std::uint32_t) == 64,
              "a block's static totals fill one cache line");

/** Static totals in AccIdx order: a block's, or the part of one that
 *  did not run. */
using Totals = std::array<std::uint32_t, kNumAcc>;

/** Add one op's static delta to @p tot (the fetch count to the region
 *  the block fetches from). */
inline void
addDelta(Totals &tot, const TDelta &dl, bool fram_code)
{
    tot[kAccBase] += dl.d_base;
    tot[kAccStall] += dl.d_stall;
    tot[fram_code ? kAccFramFetch : kAccSramFetch] += dl.d_fetch;
    tot[kAccCode] += dl.d_code;
    tot[kAccData] += dl.d_data;
    tot[kAccSramRead] += dl.d_sram_r;
    tot[kAccSramWrite] += dl.d_sram_w;
    tot[kAccFramRead] += dl.d_fram_r;
    tot[kAccFramWrite] += dl.d_fram_w;
    tot[kAccHits] += dl.d_hits;
}

/** Chain-key bit of a block in the recovery range; the low byte is
 *  the block's CodeOwner. */
constexpr std::uint16_t kKeyRecovery = 0x100;

/** Lowered form of one block: the op array (with a trailing
 *  block-end sentinel), the block's static accounting totals, how
 *  often the running chain entered it, and links to the blocks that
 *  followed it. Entry adds only the base and stall totals (chain
 *  deadlines need them exact); the chain-end fold applies the rest
 *  times the entry count. Everything the chain step reads lives here,
 *  so a linked step never touches the block table or the Block. */
class ThreadedCode
{
  public:
    /** A successor seen at this block's end, valid while the code
     *  epoch still equals @c epoch: the target's code is dropped only
     *  by a rebuild, which needs a store to its (marked) pages, which
     *  advances the epoch. */
    struct Link {
        std::uint64_t epoch = ~std::uint64_t{0}; ///< never current
        ThreadedCode *tc = nullptr;
        std::uint16_t pc = 0;
    };

    /** The linked successor at @p pc, or nullptr. */
    ThreadedCode *
    follow(std::uint16_t pc, std::uint64_t epoch) const
    {
        for (const Link &l : links)
            if (l.pc == pc && l.epoch == epoch)
                return l.tc;
        return nullptr;
    }

    /** Link @p tc as the successor at @p pc (the newest link first;
     *  a stale link at the same PC is replaced, not kept). */
    void
    link(std::uint16_t pc, ThreadedCode *tc, std::uint64_t epoch)
    {
        if (links[0].pc != pc)
            links[1] = links[0];
        links[0] = {epoch, tc, pc};
    }

    std::array<Link, 2> links{};
    std::vector<TOp> ops;
    /** The worst-case cycles, copied from the Block. */
    std::uint32_t worst = 0;
    /** kKeyRecovery when the block lies in the recovery range, | owner;
     *  fixed at lowering (range changes rebuild every block). */
    std::uint16_t key = 0;
    /** Entries in the running chain (0 outside a chain), and the next
     *  block on the chain's touched list. */
    std::uint64_t execs = 0;
    ThreadedCode *next_touched = nullptr;
    /** The window [lo, hi) that bounds the trace's segments, then the
     *  segments themselves, copied from the Block: its SMC window, and
     *  where checkpoint probes are looked for. */
    std::uint16_t lo = 0;
    std::uint32_t hi = 0;
    std::uint8_t n_segs = 0;
    std::array<SuperblockEngine::Segment, SuperblockEngine::kMaxSegments>
        segs{};
    /** Static block totals, indexed by AccIdx (the fetch count is
     *  already in the fram/sram slot matching fetch_region): one
     *  cache line. */
    alignas(64) Totals tot{};
    std::vector<TDelta> deltas;
    /** A side exit (a conditional jump inside the block): the static
     *  totals of the ops after it, and the index of the jump's op.
     *  Taking it takes back the suffix's base and stall totals at once
     *  (chain deadlines need them exact), from copies in the jump's op
     *  (TOp::xbase/xstall), and counts itself there (TOp::taken); the
     *  fold takes back the rest, times the count. */
    struct Exit {
        Totals suffix{};
        std::uint16_t op = 0;
    };
    std::vector<Exit> exits;
    bool fram_code = false;
    std::uint8_t owner = 0; ///< the block's CodeOwner
};

namespace {

/** Per-op flag-liveness facts that lowering gathers for its backward
 *  pass (ThreadedEngine::flow_). */
enum : std::uint8_t {
    kFlowReads = 1, ///< reads N/Z/C/V, or can stop the chain
    kFlowKills = 2, ///< writes all four
    kFlowNR = 4,    ///< a kNR flag-setting op with a flagless form
};

/** Kernel identifiers, in exact label-table order. The four Format I
 *  families are contiguous runs indexed by (op - Op::Mov). */
enum KernelId : int {
    kNRBase = 0,    ///< imm/reg src -> reg dst, fully static accounting
    kMRBase = 12,   ///< static mem src -> reg dst
    kNMBase = 24,   ///< imm/reg src -> static mem dst
    kDRBase = 36,   ///< dynamic mem src -> reg dst
    kNDBase = 48,   ///< imm/reg src -> dynamic Indexed dst
    kMMBase = 60,   ///< mem src -> mem dst (static or register-based)
    kRrc = 72,
    kRra,
    kSwpb,
    kSxt,
    kPush,
    kCallImm,
    kM1Base,        ///< single-operand op on a memory operand, indexed
                    ///< by (op - Op::Rrc)
    kNop = kM1Base + 6, ///< MOV of a register/immediate to CG2; a dead
                        ///< CMP/BIT
    kReti,
    kJmp,
    kJcc,     ///< conditional jump, the block's last op
    kJccExit, ///< conditional jump inside a block: taken is a side exit
    kFXBase,  ///< flag-setting kNR op + side-exit jump, indexed by
              ///< flagOpIndex
    kFEBase = kFXBase + 9, ///< flag-setting kNR op + last-op jump
    kNFBase = kFEBase + 9, ///< flagless kNR op, indexed by
                           ///< flaglessOpIndex
    kPcRmw = kNFBase + 7, ///< PC store, then the kernel in TOp::rd
    kBlockEnd,
    kBlockEndPc, ///< kBlockEnd that stores the fall-through PC first
    kNumKernels,
};

/** The Format I ops that set flags, in Op order (flagOpIndex). */
#define SWAPRAM_FLAG_OPS(X)                                              \
    X(Add) X(Addc) X(Subc) X(Sub) X(Cmp) X(Dadd) X(Bit) X(Xor) X(And)

/** The flag-setting ops with a flagless kernel: CMP and BIT, whose
 *  flags are their only effect, become kNop instead. */
#define SWAPRAM_FLAGLESS_OPS(X)                                          \
    X(Add) X(Addc) X(Subc) X(Sub) X(Dadd) X(Xor) X(And)

/** Index of a Format I op (by op - Op::Mov) among SWAPRAM_FLAG_OPS,
 *  or -1 for MOV, BIC and BIS. */
constexpr int
flagOpIndex(int op_off)
{
    constexpr std::array<std::int8_t, 12> kIdx = {-1, 0, 1,  2,  3, 4,
                                                  5,  6, -1, -1, 7, 8};
    return kIdx[static_cast<std::size_t>(op_off)];
}

/** Index of a Format I op among SWAPRAM_FLAGLESS_OPS, or -1. */
constexpr int
flaglessOpIndex(int op_off)
{
    constexpr std::array<std::int8_t, 12> kIdx = {-1, 0,  1,  2,  3, -1,
                                                  4,  -1, -1, -1, 5, 6};
    return kIdx[static_cast<std::size_t>(op_off)];
}

/** The Format II ops with a memory-operand kernel, in Op order. */
#define SWAPRAM_FMT2_OPS(X) X(Rrc) X(Swpb) X(Rra) X(Sxt) X(Push) X(Call)

/** Shared chain state + accumulators for one runChain invocation. */
struct DCtx {
    std::uint16_t *regs = nullptr;
    std::uint8_t *bytes = nullptr;
    HwCache *hw = nullptr;
    PageGenTable *gens = nullptr;

    // What the kernels touch on dynamic accesses and fetch probes
    // comes first, at offsets short enough for a one-byte
    // displacement in the dispatch loop.
    // Per-instruction FRAM line-contention chain (dynamic paths),
    // seeded from each op's fetch stream.
    fram::LineChain chain;
    // Timing-model constants.
    std::uint32_t ws = 0;
    /** Miss-minus-hit stall of a contending fetch probe. */
    std::uint32_t mx = 0;
    /** Static hardware-cache hits that missed at run time. */
    std::uint64_t miss_fix = 0;
    std::uint32_t sram_size = 0;
    /** A store hit the code of the running block's segments. */
    bool smc = false;

    // Dynamic accumulators (AccIdx order), flushed to Stats once per
    // chain. Each block's static base and stall totals are added here
    // at entry, the rest by the chain-end fold over the touched list,
    // so a bail-out only has to subtract the unexecuted suffix.
    alignas(32) std::array<std::uint64_t, kNumAcc> acc{};

    std::uint16_t code_base = 0;
    std::uint32_t code_end = 0;

    // Per-block self-modification window: bounds every segment of
    // the running trace (a hit, checked against the segments, sets
    // smc).
    std::uint16_t blk_start = 0;
    std::uint32_t blk_end = 0;

    // Chain state for block transitions inside the dispatch loop: the
    // inline step (chainStep) and its out-of-line tail
    // (ThreadedEngine::advanceChain).
    ThreadedEngine *eng = nullptr;
    SuperblockEngine *sb = nullptr;
    const ThreadedEngine::ChainLimits *limits = nullptr;
    /** The dispatched block's lowered code (null until the first). */
    ThreadedCode *cur_tc = nullptr;
    /** Blocks entered this chain, not yet folded. */
    ThreadedCode *touched = nullptr;
    std::uint64_t dispatches = 0; ///< blocks with progress this chain
    bool chain_in_recovery = false;
    // What the inline step checks: blocks end below deadline
    // (inlineDeadline), and their key matches the chain's under
    // key_mask.
    std::uint64_t now0 = 0;
    std::uint64_t deadline = 0;
    std::uint16_t key = 0;
    std::uint16_t key_mask = 0;
    std::uint16_t ckpt_commit = 0;
    std::uint16_t ckpt_restore = 0;

    // Bail-out report: the op the dispatch stopped at, and why.
    TOp *bail_op = nullptr;
    int bail_kind = 0; ///< 0 done, 1 operand (uncommitted), 2 SMC
};

/** True when @p in leaves a PC of its own (a jump, CALL, RETI or a
 *  write to a PC register destination): a kernel that runs it stores
 *  the PC. Everything else leaves the fall-through, which only
 *  SMC-stopping kernels store. */
bool
writesPc(const isa::Instr &in)
{
    const bool pc_dst =
        in.dst.mode == Mode::Register && in.dst.reg == isa::Reg::PC;
    switch (isa::opFormat(in.op)) {
      case isa::OpFormat::Jump:
        return true;
      case isa::OpFormat::DoubleOperand:
        return pc_dst && in.op != Op::Cmp && in.op != Op::Bit;
      case isa::OpFormat::SingleOperand:
        return in.op == Op::Reti || in.op == Op::Call ||
               (pc_dst && in.op != Op::Push);
    }
    return false;
}

/** Native u16 cell load (register file or the op's immediate cell). */
inline std::uint32_t
cellLoad(const std::uint8_t *sp, std::uint32_t mask)
{
    std::uint16_t v;
    std::memcpy(&v, sp, 2);
    return v & mask;
}

/** Native u16 cell store (register file); byte ops clear the upper
 *  byte, exactly storeLoc's register rule, because mask is 0xFF. */
inline void
cellStore(std::uint8_t *dp, std::uint32_t r, std::uint32_t mask)
{
    std::uint16_t v = static_cast<std::uint16_t>(r & mask);
    std::memcpy(dp, &v, 2);
}

/** Simulated-memory load (little-endian flat array). */
inline std::uint32_t
simLoad(const std::uint8_t *sp, std::uint32_t mask)
{
    if (mask == 0xFF)
        return sp[0];
    return static_cast<std::uint32_t>(sp[0]) |
           (static_cast<std::uint32_t>(sp[1]) << 8);
}

inline void
simStore(std::uint8_t *dp, std::uint32_t r, std::uint32_t mask)
{
    dp[0] = static_cast<std::uint8_t>(r & 0xFF);
    if (mask != 0xFF)
        dp[1] = static_cast<std::uint8_t>((r >> 8) & 0xFF);
}


/** One dynamic FRAM data read: the contention chain, the
 *  hardware-cache probe, and the stall. */
SWAPRAM_INLINE void
dynFramRead(DCtx *st, std::uint16_t addr)
{
    std::uint32_t contention =
        st->chain.next(addr) ? fram::kContentionStall : 0;
    bool hit = st->hw->access(addr);
    ++st->acc[hit ? kAccHits : kAccMisses];
    st->acc[kAccStall] += fram::accessStall(hit, st->ws, contention);
}

/** One dynamic FRAM data write (never probes the read cache). */
SWAPRAM_INLINE void
dynFramWrite(DCtx *st, std::uint16_t addr)
{
    std::uint32_t contention =
        st->chain.next(addr) ? fram::kContentionStall : 0;
    st->acc[kAccStall] += fram::accessStall(false, st->ws, contention);
}

inline void
dynClassify(DCtx *st, std::uint16_t addr)
{
    ++st->acc[fram::inCode(addr, st->code_base, st->code_end) ? kAccCode
                                                             : kAccData];
}

/** The simulated program made an unaligned word access: fatal. Out
 *  of line so the inlined accessors carry only the test and a call. */
[[noreturn, gnu::cold, gnu::noinline]] void
unalignedAccess(const char *what, std::uint16_t addr)
{
    support::fatal("unaligned word ", what, " at ", support::hex16(addr));
}

/** Dynamic-address load with full accounting (the caller pre-checked
 *  the address lies in SRAM/FRAM). Inlined into every kernel, as are
 *  the helpers it and dynStore call, so a dynamic access makes no call
 *  that spills the dispatch loop's registers. */
SWAPRAM_INLINE std::uint32_t
dynLoad(DCtx *st, std::uint16_t addr, bool byte)
{
    if (!byte && (addr & 1))
        unalignedAccess("read", addr);
    dynClassify(st, addr);
    if (addr >= platform::kFramBase) {
        ++st->acc[kAccFramRead];
        dynFramRead(st, addr);
    } else {
        ++st->acc[kAccSramRead];
    }
    if (byte)
        return st->bytes[addr];
    return static_cast<std::uint32_t>(st->bytes[addr]) |
           (static_cast<std::uint32_t>(
                st->bytes[static_cast<std::uint16_t>(addr + 1)])
            << 8);
}

/** Store-side invalidation duty of this tier: the page-generation
 *  bump, plus own-block SMC detection (the bounding window first, then
 *  the trace's segments). */
SWAPRAM_INLINE void
dynNoteStore(DCtx *st, std::uint16_t addr, unsigned nbytes)
{
    st->gens->noteWrite(addr, nbytes);
    std::uint32_t lo = addr;
    if (lo < st->blk_end && lo + nbytes > st->blk_start &&
        SuperblockEngine::overlapsCode(st->cur_tc->segs.data(),
                                       st->cur_tc->n_segs, lo, nbytes))
        st->smc = true;
}

/** Dynamic-address store with full accounting (inlined like
 *  dynLoad). */
SWAPRAM_INLINE void
dynStore(DCtx *st, std::uint16_t addr, std::uint32_t value, bool byte)
{
    if (!byte && (addr & 1))
        unalignedAccess("write", addr);
    dynClassify(st, addr);
    if (addr >= platform::kFramBase) {
        ++st->acc[kAccFramWrite];
        dynFramWrite(st, addr);
    } else {
        ++st->acc[kAccSramWrite];
    }
    st->bytes[addr] = static_cast<std::uint8_t>(value & 0xFF);
    if (!byte)
        st->bytes[static_cast<std::uint16_t>(addr + 1)] =
            static_cast<std::uint8_t>((value >> 8) & 0xFF);
    dynNoteStore(st, addr, byte ? 1 : 2);
}

/** Replay the fetch stream's dynamic hardware-cache probes (at most
 *  two line runs; same-line followers are folded statically). The
 *  statics booked each probe as a hit; a miss adds the rest of its
 *  stall and a miss fix, which the flush moves from hits to misses.
 *  The first probe's extra stall is per-op (fm0): normally ws (a
 *  leading run never contends), but when cross-op folding removed the
 *  leading run, the surviving probe is a contending line change and
 *  owes what the second probe owes. */
SWAPRAM_INLINE void
tFetch(DCtx *st, const TOp *op)
{
    if (op->runs) {
        if (!st->hw->access(op->fa0)) {
            st->acc[kAccStall] += op->fm0;
            ++st->miss_fix;
        }
        if (op->runs > 1 && !st->hw->access(op->fa1)) {
            st->acc[kAccStall] += st->mx;
            ++st->miss_fix;
        }
    }
}

/** One dynamic data-read probe of a static FRAM address, booked like
 *  a fetch probe. */
SWAPRAM_INLINE void
tProbe(DCtx *st, const TOp *op, std::uint16_t addr)
{
    if (op->probe && !st->hw->access(addr)) {
        st->acc[kAccStall] += op->d0_miss;
        ++st->miss_fix;
    }
}

/** imm/reg src -> reg dst: no memory, fully static accounting. Never
 *  stops the chain; returns the ALU outcome, whose flags a fused jump
 *  tests. kFlags false is the flagless form of an op whose flags the
 *  block overwrites unread: the flag arithmetic folds away. */
template <Op OP, bool kFlags = fmt1Flags(OP)>
SWAPRAM_INLINE AluR
kernNR(DCtx *st, TOp *op)
{
    tFetch(st, op);
    std::uint16_t *regs = st->regs;
    std::uint32_t src = cellLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = cellLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes(OP))
        cellStore(op->dp, o.r, op->mask);
    if constexpr (kFlags)
        setF(regs[2], o);
    return o;
}

/** Static mem src -> reg dst: at most one dynamic probe. */
template <Op OP>
SWAPRAM_INLINE int
kernMR(DCtx *st, TOp *op)
{
    tFetch(st, op);
    tProbe(st, op, op->a);
    std::uint16_t *regs = st->regs;
    std::uint32_t src = simLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = cellLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes(OP))
        cellStore(op->dp, o.r, op->mask);
    if constexpr (fmt1Flags(OP))
        setF(regs[2], o);
    return 0;
}

/** imm/reg src -> static mem dst: probe covers the non-Mov dst read;
 *  the write's stall and the SMC outcome are static. The
 *  page-generation bump stays dynamic. */
template <Op OP>
SWAPRAM_INLINE int
kernNM(DCtx *st, TOp *op)
{
    tFetch(st, op);
    if constexpr (OP != Op::Mov)
        tProbe(st, op, op->b);
    std::uint16_t *regs = st->regs;
    std::uint32_t src = cellLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = simLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes(OP)) {
        simStore(op->dp, o.r, op->mask);
        st->gens->noteWrite(op->b, op->byte ? 1 : 2);
    }
    if constexpr (fmt1Flags(OP))
        setF(regs[2], o);
    if constexpr (fmt1Writes(OP)) {
        if (op->smc) {
            regs[0] = op->next_pc;
            return 2;
        }
    }
    return 0;
}

/** Dynamic mem src -> reg dst: mapped pre-check, then fully dynamic
 *  source accounting (the contention chain seeds from the fetch). */
template <Op OP>
SWAPRAM_INLINE int
kernDR(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t addr =
        static_cast<std::uint16_t>(regs[op->ra] + op->a);
    if (!SuperblockEngine::addrMapped(addr, st->sram_size))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    regs[op->ra] = static_cast<std::uint16_t>(regs[op->ra] + op->inc);
    std::uint32_t src = dynLoad(st, addr, op->byte != 0);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = cellLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes(OP))
        cellStore(op->dp, o.r, op->mask);
    if constexpr (fmt1Flags(OP))
        setF(regs[2], o);
    return 0;
}

/** imm/reg src -> dynamic Indexed dst: mapped pre-check on the
 *  destination, fully dynamic read-modify-write accounting. */
template <Op OP>
SWAPRAM_INLINE int
kernND(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t addr =
        static_cast<std::uint16_t>(regs[op->rd] + op->b);
    if (!SuperblockEngine::addrMapped(addr, st->sram_size))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    std::uint32_t src = cellLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = dynLoad(st, addr, op->byte != 0);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes(OP))
        dynStore(st, addr, o.r, op->byte != 0);
    if constexpr (fmt1Flags(OP))
        setF(regs[2], o);
    if constexpr (fmt1Writes(OP)) {
        if (st->smc) {
            regs[0] = op->next_pc;
            return 2;
        }
    }
    return 0;
}

/** RRC, RRA, SWPB or SXT on a register destination (mask
 *  distinguishes RRC.B and RRA.B). */
template <Op OP>
SWAPRAM_INLINE void
kernF2(DCtx *st, TOp *op)
{
    const std::uint32_t mask = fmt2Word(OP) ? 0xFFFF : op->mask;
    const std::uint32_t msb = fmt2Word(OP) ? 0x8000 : op->msb;
    tFetch(st, op);
    std::uint16_t *regs = st->regs;
    const std::uint32_t v = cellLoad(op->dp, mask);
    AluR o;
    if constexpr (OP == Op::Rrc) {
        // Branch on the carry in: passed SR as it is, GCC selects the
        // top bit with a cmov that waits for the SR the previous
        // kernel stored, and steady ran 2.5% slower.
        if (regs[2] & isa::sr::kC)
            o = fmt2Alu<OP>(v, isa::sr::kC, mask, msb);
        else
            o = fmt2Alu<OP>(v, 0, mask, msb);
    } else {
        o = fmt2Alu<OP>(v, regs[2], mask, msb);
    }
    cellStore(op->dp, o.r, mask);
    if constexpr (fmt2Flags(OP))
        setF(regs[2], o);
}

/** PUSH of a register/immediate source: one dynamic stack write. */
SWAPRAM_INLINE int
kernPush(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t nsp = static_cast<std::uint16_t>(regs[1] - 2);
    if (!SuperblockEngine::addrMapped(nsp, st->sram_size))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    std::uint32_t v = cellLoad(op->sp, op->mask);
    regs[1] = nsp;
    dynStore(st, nsp, v, op->byte != 0);
    if (st->smc) {
        regs[0] = op->next_pc;
        return 2;
    }
    return 0;
}

/** CALL #imm: static target, one dynamic stack write. Terminator. */
SWAPRAM_INLINE int
kernCallImm(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t nsp = static_cast<std::uint16_t>(regs[1] - 2);
    if (!SuperblockEngine::addrMapped(nsp, st->sram_size))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    regs[1] = nsp;
    dynStore(st, nsp, op->next_pc, false);
    regs[0] = op->a;
    return st->smc ? 2 : 0;
}

/** Base cell of a static memory operand in the memory-operand kernels
 *  (kMM, kM1), whose addresses are base cell + offset: always 0, so
 *  the offset is the address. Never written. */
std::uint16_t g_static_base = 0;

/** Memory src -> memory dst (each static or register-based): both
 *  addresses pre-checked before anything is committed, then fully
 *  dynamic accounting for the source read, the destination read and
 *  the store, in the oracle's order. The destination offset already
 *  includes the source's post-increment when both use one register
 *  (lowering folds it in), as ExecCore resolves the destination after
 *  the source. */
template <Op OP>
SWAPRAM_INLINE int
kernMM(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    const std::uint16_t saddr =
        static_cast<std::uint16_t>(cellLoad(op->sp, 0xFFFF) + op->a);
    const std::uint16_t daddr =
        static_cast<std::uint16_t>(cellLoad(op->dp, 0xFFFF) + op->b);
    if (!SuperblockEngine::addrMapped(saddr, st->sram_size) ||
        !SuperblockEngine::addrMapped(daddr, st->sram_size))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    regs[op->ra] = static_cast<std::uint16_t>(regs[op->ra] + op->inc);
    const bool byte = op->byte != 0;
    std::uint32_t src = dynLoad(st, saddr, byte);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = dynLoad(st, daddr, byte);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes(OP))
        dynStore(st, daddr, o.r, byte);
    if constexpr (fmt1Flags(OP))
        setF(regs[2], o);
    if constexpr (fmt1Writes(OP)) {
        if (st->smc) {
            regs[0] = op->next_pc;
            return 2;
        }
    }
    return 0;
}

/** A single-operand op on a memory operand (static or register-based):
 *  RRC/RRA/SWPB/SXT rewrite it in place; PUSH and CALL read it and
 *  write the stack slot (dp = SP's cell, b = the slot's offset from SP
 *  before the operand's post-increment). Every address is pre-checked
 *  before anything is committed. */
template <Op OP>
SWAPRAM_INLINE int
kernM1(DCtx *st, TOp *op)
{
    constexpr bool kStack = OP == Op::Push || OP == Op::Call;
    std::uint16_t *regs = st->regs;
    const std::uint16_t addr =
        static_cast<std::uint16_t>(cellLoad(op->sp, 0xFFFF) + op->a);
    std::uint16_t slot = 0;
    if constexpr (kStack)
        slot = static_cast<std::uint16_t>(cellLoad(op->dp, 0xFFFF) + op->b);
    if (!SuperblockEngine::addrMapped(addr, st->sram_size) ||
        (kStack && !SuperblockEngine::addrMapped(slot, st->sram_size)))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    regs[op->ra] = static_cast<std::uint16_t>(regs[op->ra] + op->inc);
    const bool byte = op->byte != 0;
    if constexpr (OP == Op::Push) {
        std::uint32_t v = dynLoad(st, addr, byte);
        regs[1] = slot;
        dynStore(st, slot, v, byte);
    } else if constexpr (OP == Op::Call) {
        std::uint32_t target = dynLoad(st, addr, false);
        regs[1] = slot;
        dynStore(st, slot, op->next_pc, false);
        regs[0] = static_cast<std::uint16_t>(target);
    } else {
        const bool b = !fmt2Word(OP) && byte;
        const std::uint32_t mask = fmt2Word(OP) ? 0xFFFF : op->mask;
        const std::uint32_t msb = fmt2Word(OP) ? 0x8000 : op->msb;
        AluR o = fmt2Alu<OP>(dynLoad(st, addr, b), regs[2], mask, msb);
        dynStore(st, addr, o.r, b);
        if constexpr (fmt2Flags(OP))
            setF(regs[2], o);
    }
    if (st->smc) {
        if constexpr (OP != Op::Call)
            regs[0] = op->next_pc;
        return 2;
    }
    return 0;
}

/** RETI: pops SR, then PC, off a pre-checked stack. Terminator. */
SWAPRAM_INLINE int
kernReti(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    const std::uint16_t sp = regs[1];
    const auto sp2 = static_cast<std::uint16_t>(sp + 2);
    if (!SuperblockEngine::addrMapped(sp, st->sram_size) ||
        !SuperblockEngine::addrMapped(sp2, st->sram_size))
        return 1;
    tFetch(st, op);
    st->chain = {op->chain, op->lastline};
    regs[2] = static_cast<std::uint16_t>(dynLoad(st, sp, false));
    regs[0] = static_cast<std::uint16_t>(dynLoad(st, sp2, false));
    regs[1] = static_cast<std::uint16_t>(sp + 4);
    return 0;
}

/** Enter a lowered block: its base and stall cycles now, one more
 *  execution for the chain-end fold (joining the touched list on the
 *  first), and the block's SMC window. Returns its op array. */
SWAPRAM_INLINE TOp *
enterBlock(DCtx *st, ThreadedCode &tc)
{
    st->acc[kAccBase] += tc.tot[kAccBase];
    st->acc[kAccStall] += tc.tot[kAccStall];
    if (tc.execs++ == 0) {
        tc.next_touched = st->touched;
        st->touched = &tc;
    }
    st->blk_start = tc.lo;
    st->blk_end = tc.hi;
    st->smc = false;
    st->cur_tc = &tc;
    return tc.ops.data();
}

/** True when a checkpoint probe PC (0: none) lies in the code of one
 *  of a trace's @p n segments — past its first instruction when the
 *  chain starts there, as the caller's pre-step reports that entry. A
 *  block may run through a forward side exit's fall-through or a
 *  followed transfer into a probe, so its start alone does not
 *  decide. */
SWAPRAM_INLINE bool
probeIn(std::uint16_t commit, std::uint16_t restore,
        const SuperblockEngine::Segment *segs, std::uint8_t n, bool first)
{
    if ((commit | restore) == 0)
        return false;
    for (std::uint8_t i = 0; i < n; ++i) {
        const std::uint32_t from =
            segs[i].start + (first && i == 0 ? 2u : 0u);
        const std::uint32_t end = segs[i].end;
        if ((commit >= from && commit < end) ||
            (restore >= from && restore < end))
            return true;
    }
    return false;
}

/**
 * The block-to-block step, at chain entry (@p kFirst) and at each
 * block-end sentinel. It finds the lowered code at the current PC
 * through the finished block's links when one is current, else by
 * peeking the block table (and links what it finds), and enters it
 * when its worst case ends below the chain's deadline, its key
 * matches the chain's, and no checkpoint probe lies in its segments'
 * code (past its first instruction, for the chain's first block).
 * Anything else goes to
 * ThreadedEngine::advanceChain, which re-derives the verdict. Returns
 * the op array to run, or nullptr when the chain ends.
 */
template <bool kFirst>
SWAPRAM_INLINE TOp *
chainStep(DCtx *st)
{
    const std::uint16_t pc = st->regs[0];
    const std::uint64_t epoch = st->gens->codeEpoch();
    ThreadedCode *tc = kFirst ? nullptr : st->cur_tc->follow(pc, epoch);
    if (!tc) {
        if (SuperblockEngine::Block *b = st->sb->peek(pc)) {
            tc = b->threaded.get();
            if (!kFirst && tc)
                st->cur_tc->link(pc, tc, epoch);
        }
    }
    const std::uint64_t now =
        st->now0 + st->acc[kAccBase] + st->acc[kAccStall];
    if (tc && now + tc->worst < st->deadline &&
        ((tc->key ^ st->key) & st->key_mask) == 0 &&
        !probeIn(st->ckpt_commit, st->ckpt_restore, tc->segs.data(),
                 tc->n_segs, kFirst))
        return enterBlock(st, *tc);
    return static_cast<TOp *>(st->eng->advanceChain(st));
}

/** The inline step's deadline, at a fold at total-cycle count @p now:
 *  the chain's limit (0 with a timer, which only the tail sequences),
 *  and at most 2^32 cycles on, so no side exit's 32-bit taken count
 *  (a taken exit costs at least one cycle) wraps before the next
 *  fold. */
std::uint64_t
inlineDeadline(const ThreadedEngine::ChainLimits &limits, std::uint64_t now)
{
    if (limits.timer_period)
        return 0;
    return std::min(limits.limit_cycles, now + (std::uint64_t{1} << 32));
}

/** Apply every touched block's static totals other than base and
 *  stall, times its entries, less those of its taken side exits'
 *  suffixes, times their counts, and empty the touched list. */
void
foldTouched(DCtx &st)
{
    for (ThreadedCode *tc = st.touched; tc; tc = tc->next_touched) {
        const std::uint64_t e = tc->execs;
        for (int i = kAccStall + 1; i < kNumAcc; ++i)
            st.acc[i] += e * tc->tot[i];
        for (const ThreadedCode::Exit &x : tc->exits) {
            TOp &j = tc->ops[x.op];
            if (!j.taken)
                continue;
            for (int i = kAccStall + 1; i < kNumAcc; ++i)
                st.acc[i] -= std::uint64_t{j.taken} * x.suffix[i];
            j.taken = 0;
        }
        st.dispatches += e;
        tc->execs = 0;
    }
    st.touched = nullptr;
}

/**
 * The dispatch loop: a computed-goto chain over a lowered block.
 * Called with st == nullptr it returns the kernel label table (indexed
 * by KernelId) so lowering can resolve handlers; otherwise it runs ops
 * from @p op until a bail-out or the block-end sentinel, recording the
 * stop point and reason in the context.
 */
const void *const *
dispatchRun(DCtx *st, TOp *op)
{
    static const void *const kLabels[kNumKernels] = {
#define X(N) &&L_nr_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_mr_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_nm_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_dr_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_nd_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_mm_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
        &&L_rrc,     &&L_rra, &&L_swpb, &&L_sxt,     &&L_push,
        &&L_callimm,
#define X(N) &&L_m1_##N,
        SWAPRAM_FMT2_OPS(X)
#undef X
        &&L_nop,     &&L_reti, &&L_jmp, &&L_jcc,  &&L_jcc_x,
#define X(N) &&L_fx_##N,
        SWAPRAM_FLAG_OPS(X)
#undef X
#define X(N) &&L_fe_##N,
        SWAPRAM_FLAG_OPS(X)
#undef X
#define X(N) &&L_nf_##N,
        SWAPRAM_FLAGLESS_OPS(X)
#undef X
        &&L_pc_rmw,  &&L_end, &&L_end_pc,
    };
    if (!st)
        return kLabels;

#define SWAPRAM_NEXT                                                     \
    do {                                                                 \
        ++op;                                                            \
        goto *op->h;                                                     \
    } while (0)
#define SWAPRAM_RUN(call)                                                \
    do {                                                                 \
        int k_ = (call);                                                 \
        if (k_ != 0) {                                                   \
            if (k_ == 1)                                                 \
                goto L_bail_operand;                                     \
            goto L_bail_smc;                                             \
        }                                                                \
    } while (0)

    goto *op->h;

#define X(N)                                                             \
    L_nr_##N : kernNR<Op::N>(st, op);                                    \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
    // A flag-setting op fused with the conditional jump after it: the
    // jump's condition comes from the ALU outcome, not a reload of SR.
    // The jump keeps its own TOp (fetch probe, target, truth table).
#define X(N)                                                             \
    L_fx_##N : {                                                         \
        const unsigned f_ = flagIndex(kernNR<Op::N>(st, op));            \
        ++op;                                                            \
        tFetch(st, op);                                                  \
        if (!((op->mask >> f_) & 1))                                     \
            SWAPRAM_NEXT;                                                \
        st->regs[0] = op->a;                                             \
        goto L_side_exit;                                                \
    }                                                                    \
    L_fe_##N : {                                                         \
        const unsigned f_ = flagIndex(kernNR<Op::N>(st, op));            \
        ++op;                                                            \
        tFetch(st, op);                                                  \
        st->regs[0] = ((op->mask >> f_) & 1) ? op->a : op->next_pc;      \
        goto L_end;                                                      \
    }
    SWAPRAM_FLAG_OPS(X)
#undef X
#define X(N)                                                             \
    L_nf_##N : kernNR<Op::N, false>(st, op);                             \
    SWAPRAM_NEXT;
    SWAPRAM_FLAGLESS_OPS(X)
#undef X
#define X(N)                                                             \
    L_mr_##N : SWAPRAM_RUN(kernMR<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_nm_##N : SWAPRAM_RUN(kernNM<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_dr_##N : SWAPRAM_RUN(kernDR<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_nd_##N : SWAPRAM_RUN(kernND<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_mm_##N : SWAPRAM_RUN(kernMM<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_m1_##N : SWAPRAM_RUN(kernM1<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT2_OPS(X)
#undef X

L_rrc:
    kernF2<Op::Rrc>(st, op);
    SWAPRAM_NEXT;
L_rra:
    kernF2<Op::Rra>(st, op);
    SWAPRAM_NEXT;
L_swpb:
    kernF2<Op::Swpb>(st, op);
    SWAPRAM_NEXT;
L_sxt:
    kernF2<Op::Sxt>(st, op);
    SWAPRAM_NEXT;
L_push:
    SWAPRAM_RUN(kernPush(st, op));
    SWAPRAM_NEXT;
L_callimm:
    SWAPRAM_RUN(kernCallImm(st, op));
    SWAPRAM_NEXT;
L_nop:
    tFetch(st, op);
    SWAPRAM_NEXT;
L_reti:
    SWAPRAM_RUN(kernReti(st, op));
    SWAPRAM_NEXT;
L_jmp:
    tFetch(st, op);
    st->regs[0] = op->a;
    SWAPRAM_NEXT;
L_jcc:
    tFetch(st, op);
    st->regs[0] =
        ((op->mask >> flagIndex(st->regs[2])) & 1) ? op->a : op->next_pc;
    SWAPRAM_NEXT;
L_jcc_x:
    tFetch(st, op);
    if (!((op->mask >> flagIndex(st->regs[2])) & 1))
        SWAPRAM_NEXT;
    st->regs[0] = op->a;
    goto L_side_exit;

L_end_pc:
    // The sentinel of a block whose last op leaves the PC as it was:
    // no op stored it, so store the fall-through.
    st->regs[0] = op->next_pc;
    goto L_end;
L_pc_rmw:
    // A PC read-modify-write destination (ADD #k, PC) reads the
    // fall-through PC, which no op before it stores; rd names the op's
    // own kernel.
    st->regs[0] = op->next_pc;
    goto *kLabels[op->rd];

L_bail_operand:
    // Nothing committed: the oracle runs the op again from its own PC.
    st->regs[0] = op->pc;
    st->bail_op = op;
    st->bail_kind = 1;
    return kLabels;
L_bail_smc:
    st->bail_op = op;
    st->bail_kind = 2;
    return kLabels;
L_side_exit : {
    // A taken side exit leaves the block early: take back the base and
    // stall totals of the ops after it (the fold takes back the rest),
    // then step on as at the block end.
    st->acc[kAccBase] -= op->xbase;
    st->acc[kAccStall] -= op->xstall;
    ++op->taken;
}
L_end:
    // Block completed: step to the next one in line — the dispatch
    // function itself is entered once per chain, not once per block.
    op = chainStep<false>(st);
    if (op)
        goto *op->h;
    st->bail_op = nullptr;
    st->bail_kind = 0;
    return kLabels;

#undef SWAPRAM_NEXT
#undef SWAPRAM_RUN
}

} // namespace

ThreadedEngine::ThreadedEngine(Cpu &cpu, Memory &memory, Bus &bus,
                               Stats &stats, const MachineConfig &config,
                               SuperblockEngine &sb)
    : cpu_(cpu), memory_(memory), bus_(bus), stats_(stats),
      config_(config), sb_(sb)
{
    labels_ = dispatchRun(nullptr, nullptr);
}

void
ThreadedEngine::lower(SuperblockEngine::Block &block)
{
    auto tc = std::make_shared<ThreadedCode>();
    const bool fram_code = block.fetch_region == RegionKind::Fram;
    const std::uint32_t ws = config_.effectiveWaitStates();
    constexpr std::uint32_t cstall = fram::kContentionStall;
    const std::uint16_t code_base = bus_.codeBase();
    const std::uint32_t code_end = bus_.codeEnd();
    std::uint16_t *regs = cpu_.regs().data();
    std::uint8_t *bytes = memory_.bytes();
    tc->n_segs = block.n_segs;
    tc->segs = block.segs;
    tc->lo = block.start_pc;
    tc->hi = block.start_pc;
    for (std::uint8_t i = 0; i < block.n_segs; ++i) {
        tc->lo = std::min(tc->lo, block.segs[i].start);
        tc->hi = std::max(tc->hi, block.segs[i].end);
    }
    tc->worst = block.worst_case_cycles;
    tc->fram_code = fram_code;
    tc->owner = block.owner;
    tc->key = static_cast<std::uint16_t>(
        (sb_.inRecovery(block.start_pc) ? kKeyRecovery : 0) | block.owner);

    const std::size_t n = block.instrs.size();
    // Sized once up front: ops never reallocate afterwards, so an
    // immediate's source cell may point into its own TOp.
    tc->ops.resize(n + 1);
    tc->deltas.resize(n);
    flow_.resize(n);

    auto regCell = [regs](isa::Reg r) {
        return reinterpret_cast<std::uint8_t *>(regs + isa::regIndex(r));
    };
    // A register source's cell. No op stores the PC it leaves behind,
    // so a PC source (MOV PC, Rn; PUSH PC) reads the op's own
    // fall-through cell: the value ExecCore sees after the fetch.
    auto pcOrRegCell = [&](isa::Reg r, TOp &t) -> const std::uint8_t * {
        if (r == isa::Reg::PC)
            return reinterpret_cast<const std::uint8_t *>(&t.next_pc);
        return regCell(r);
    };
    // A memory operand of the kMM/kM1 kernels as base cell + offset: a
    // register's cell, or g_static_base for a Symbolic/Absolute
    // address. @Rn+ records its register and step in ra/inc. The
    // families of these kernels have no PC-based operand.
    auto memOperand = [&](const Operand &op, bool byte, TOp &t,
                          std::uint8_t *&base, std::uint16_t &offset) {
        if (op.mode == Mode::Symbolic || op.mode == Mode::Absolute) {
            base = reinterpret_cast<std::uint8_t *>(&g_static_base);
            offset = op.value;
            return;
        }
        base = regCell(op.reg);
        offset = op.mode == Mode::Indexed ? op.value : 0;
        if (op.mode == Mode::IndirectInc) {
            t.ra = isa::regIndex(op.reg);
            t.inc = byte ? 1 : 2;
        }
    };
    // The contention a static-address data access owes: the chain
    // before it is the op's own fetch stream, whose addresses are fixed.
    auto staticContention = [&](std::uint16_t addr, const TOp &t) {
        fram::LineChain chain{t.chain, t.lastline};
        return chain.next(addr) ? cstall : 0u;
    };
    // Fold one static-address data read into op statics. Only the
    // hardware cache's hit/miss outcome stays a runtime probe; both
    // outcomes' stalls are precomputed.
    auto staticRead = [&](std::uint16_t addr, TOp &t, TDelta &dl) {
        ++(fram::inCode(addr, code_base, code_end) ? dl.d_code
                                                   : dl.d_data);
        if (addr >= platform::kFramBase) {
            ++dl.d_fram_r;
            std::uint32_t cont = staticContention(addr, t);
            t.probe = 1;
            ++dl.d_hits;
            dl.d_stall += fram::accessStall(true, ws, cont);
            t.d0_miss = static_cast<std::uint16_t>(
                fram::accessStall(false, ws, cont) -
                fram::accessStall(true, ws, cont));
        } else {
            ++dl.d_sram_r;
        }
    };
    // Fold one static-address data write: the stall is fully static
    // (after_read: the preceding read of the same cell already seeded
    // the contention chain with this line, so the write never
    // contends). The SMC outcome is static too — both the address and
    // the block's code window are fixed.
    auto staticWrite = [&](std::uint16_t addr, TOp &t, TDelta &dl,
                           bool after_read, unsigned nbytes) {
        ++(fram::inCode(addr, code_base, code_end) ? dl.d_code
                                                   : dl.d_data);
        if (addr >= platform::kFramBase) {
            ++dl.d_fram_w;
            std::uint32_t cont =
                after_read ? 0 : staticContention(addr, t);
            dl.d_stall += fram::accessStall(false, ws, cont);
        } else {
            ++dl.d_sram_w;
        }
        if (SuperblockEngine::overlapsCode(block.segs.data(), block.n_segs,
                                           addr, nbytes))
            t.smc = 1;
    };

    // Cross-op fetch-run folding. After an instruction's fetch stream,
    // its last line is the most-recently-used way of its set; if the
    // next instruction starts on that same line and nothing in between
    // could have touched the hardware cache (no data-read probe — FRAM
    // data writes never probe), its leading fetch probe is a guaranteed
    // hit on the MRU way: hits += 1, stall 0, LRU unchanged. Fold it
    // into the statics and drop the runtime probe.
    std::uint32_t fold_line = 0xFFFFFFFF;
    bool fold_clean = false;

    for (std::size_t i = 0; i < n; ++i) {
        const SuperblockEngine::BlockInstr &bi = block.instrs[i];
        const isa::Instr &in = bi.instr;
        TOp &t = tc->ops[i];
        TDelta &dl = tc->deltas[i];
        t.next_pc = bi.next_pc;
        t.pc = bi.pc;
        dl.d_base = bi.base_cycles;
        t.byte = in.byte ? 1 : 0;
        t.mask = in.byte ? 0xFF : 0xFFFF;
        t.msb = in.byte ? 0x80 : 0x8000;

        // Fetch statics: collapse the FRAM stream to its line runs.
        dl.d_fetch = bi.n_words;
        if (fram_code) {
            t.chain = bi.n_words;
            t.lastline = static_cast<std::uint16_t>(bi.last_fetch_line);
            int runs = 0;
            for (int w = 0; w < bi.n_words; ++w) {
                if (w == 0 || bi.fetch_contends[w]) {
                    std::uint16_t wa = static_cast<std::uint16_t>(
                        bi.pc + 2 * w);
                    if (runs == 0)
                        t.fa0 = wa;
                    else
                        t.fa1 = wa;
                    ++runs;
                }
            }
            // A leading run never contends.
            std::uint32_t lead = 0;
            if (runs > 0 && fold_clean &&
                fram::lineOf(bi.pc) == fold_line) {
                // The surviving probe (if any) is the old second
                // run — a contending line change, not a leading
                // run — so it keeps run-1 stall contributions.
                t.fa0 = t.fa1;
                lead = cstall;
                --runs;
            }
            // Every fetch word is a hit in the statics; a probe that
            // misses adds the rest at run time.
            t.fm0 = static_cast<std::uint16_t>(
                fram::accessStall(false, ws, lead) -
                fram::accessStall(true, ws, lead));
            t.runs = static_cast<std::uint8_t>(runs);
            dl.d_hits = bi.n_words;
            if (runs > 0)
                dl.d_stall += fram::accessStall(true, ws, lead);
            if (runs > 1)
                dl.d_stall += fram::accessStall(true, ws, cstall);
        }
        dl.d_code = bi.code_words;
        dl.d_data = static_cast<std::uint8_t>(bi.n_words - bi.code_words);

        // Kernel selection: the family the block builder admitted the
        // instruction with, then its operands.
        const Op o = in.op;
        const isa::OpFormat fmt = isa::opFormat(o);
        const Operand &s = in.src;
        const Operand &d = in.dst;
        const int op_off = static_cast<int>(o) - static_cast<int>(Op::Mov);
        const KernelFamily fam = kernelFamily(in);
        if (fmt == isa::OpFormat::DoubleOperand) {
            if (s.mode == Mode::Immediate) {
                t.a = s.value;
                t.sp = reinterpret_cast<const std::uint8_t *>(&t.a);
            } else if (s.mode == Mode::Register) {
                t.sp = pcOrRegCell(s.reg, t);
            }
        }
        int kid = 0;
        std::uint8_t *sbase = nullptr;
        switch (fam) {
          case KernelFamily::None:
            support::panic("ThreadedEngine::lower: no kernel for `",
                           isa::disasm(in), "` at ", support::hex16(bi.pc));
          case KernelFamily::Jmp:
            kid = kJmp;
            t.a = in.jump_target;
            break;
          case KernelFamily::Jcc:
            // Before the block's last op, a conditional jump is a side
            // exit (sim/superblock.hh).
            kid = i + 1 < n ? kJccExit : kJcc;
            t.a = in.jump_target;
            t.mask = kJumpTruth[static_cast<std::size_t>(
                static_cast<int>(o) - static_cast<int>(Op::Jne))];
            break;
          case KernelFamily::NR: {
            kid = kNRBase + op_off;
            t.dp = regCell(d.reg);
            // Fused with a conditional jump right after it (a PC
            // destination ends the block, so it never has one).
            const int fi = flagOpIndex(op_off);
            if (fi >= 0 && d.reg != isa::Reg::PC && i + 1 < n &&
                isCondJump(block.instrs[i + 1].instr.op))
                kid = (i + 2 < n ? kFXBase : kFEBase) + fi;
            break;
          }
          case KernelFamily::MR:
            kid = kMRBase + op_off;
            t.a = s.value;
            t.sp = bytes + s.value;
            t.dp = regCell(d.reg);
            staticRead(s.value, t, dl);
            break;
          case KernelFamily::NM: {
            kid = kNMBase + op_off;
            t.b = d.value;
            t.dp = bytes + d.value;
            const bool reads_dst = o != Op::Mov;
            if (reads_dst)
                staticRead(d.value, t, dl);
            if (o != Op::Cmp && o != Op::Bit)
                staticWrite(d.value, t, dl, reads_dst, in.byte ? 1 : 2);
            break;
          }
          case KernelFamily::DR:
            kid = kDRBase + op_off;
            t.ra = isa::regIndex(s.reg);
            t.a = s.mode == Mode::Indexed ? s.value : 0;
            t.inc = s.mode == Mode::IndirectInc ? (in.byte ? 1 : 2) : 0;
            t.dp = regCell(d.reg);
            break;
          case KernelFamily::ND:
            kid = kNDBase + op_off;
            t.rd = isa::regIndex(d.reg);
            t.b = d.value;
            break;
          case KernelFamily::MM:
            kid = kMMBase + op_off;
            memOperand(d, in.byte, t, t.dp, t.b);
            memOperand(s, in.byte, t, sbase, t.a);
            t.sp = sbase;
            // ExecCore resolves the destination after the source's
            // post-increment: fold it into the destination offset.
            if (d.mode == Mode::Indexed && t.inc &&
                isa::regIndex(d.reg) == t.ra)
                t.b = static_cast<std::uint16_t>(t.b + t.inc);
            break;
          case KernelFamily::Nop:
            kid = kNop; // the write to the constant generator is lost
            break;
          case KernelFamily::Fmt2Reg:
            kid = o == Op::Rrc ? kRrc
                : o == Op::Rra ? kRra
                : o == Op::Swpb ? kSwpb
                                : kSxt;
            t.dp = regCell(d.reg);
            break;
          case KernelFamily::Push:
            kid = kPush;
            if (d.mode == Mode::Immediate) {
                t.a = d.value;
                t.sp = reinterpret_cast<const std::uint8_t *>(&t.a);
            } else {
                t.sp = pcOrRegCell(d.reg, t);
            }
            break;
          case KernelFamily::CallImm:
            kid = kCallImm;
            t.a = d.value;
            break;
          case KernelFamily::Fmt2Mem:
            kid = kM1Base + (static_cast<int>(o) - static_cast<int>(Op::Rrc));
            memOperand(d, in.byte, t, sbase, t.a);
            t.sp = sbase;
            if (o == Op::Push || o == Op::Call) {
                // The slot is SP - 2 after the operand's own
                // post-increment of SP, if any.
                t.dp = regCell(isa::Reg::SP);
                t.b = static_cast<std::uint16_t>(
                    (t.ra == isa::regIndex(isa::Reg::SP) ? t.inc : 0) - 2);
            }
            break;
          case KernelFamily::Reti:
            kid = kReti;
            break;
        }
        // A register-kernel op that reads a PC destination (ADD #k, PC,
        // RRA PC) first stores the fall-through PC it reads.
        if ((fam == KernelFamily::NR || fam == KernelFamily::MR ||
             fam == KernelFamily::DR || fam == KernelFamily::Fmt2Reg) &&
            d.mode == Mode::Register && d.reg == isa::Reg::PC &&
            o != Op::Mov) {
            t.rd = static_cast<std::uint8_t>(kid);
            kid = kPcRmw;
        }
        t.h = labels_[kid];

        // Flag-liveness facts for the backward pass below. An op reads
        // N/Z/C/V when it tests them, takes a carry in, has SR as an
        // operand, or can stop the chain (an operand bail-out or an
        // SMC stop: the oracle or an interrupt may read SR there).
        const int fmt1_off =
            fmt == isa::OpFormat::DoubleOperand ? op_off : -1;
        const bool sr_operand =
            (fmt1_off >= 0 && s.mode == Mode::Register &&
             s.reg == isa::Reg::SR) ||
            (fmt != isa::OpFormat::Jump && d.mode == Mode::Register &&
             d.reg == isa::Reg::SR);
        const bool can_stop =
            fam == KernelFamily::DR || fam == KernelFamily::ND ||
            fam == KernelFamily::MM || fam == KernelFamily::Fmt2Mem ||
            fam == KernelFamily::Push || fam == KernelFamily::CallImm ||
            fam == KernelFamily::Reti || t.smc;
        const bool sets_flags = (fmt1_off >= 0 && flagOpIndex(fmt1_off) >= 0) ||
                                o == Op::Rra || o == Op::Rrc ||
                                o == Op::Sxt;
        std::uint8_t fl = 0;
        if (isCondJump(o) || o == Op::Addc || o == Op::Subc ||
            o == Op::Dadd || o == Op::Rrc || o == Op::Reti || sr_operand ||
            can_stop)
            fl |= kFlowReads;
        if (sets_flags)
            fl |= kFlowKills;
        if (sets_flags && !sr_operand && kid >= kNRBase && kid < kNRBase + 12)
            fl |= kFlowNR;
        flow_[i] = fl;

        // Fold state for the next instruction's leading fetch run:
        // dirty when this op can issue a data-read probe (static FRAM
        // read or dynamic-address read). Dynamic writes go through
        // framStall's write path, which never probes, but a dynamic
        // *read* might land in FRAM, so DR, read-modify-write ND, MM,
        // the memory single-operand forms and RETI all invalidate the
        // MRU assumption.
        fold_line = bi.last_fetch_line;
        const bool may_probe =
            t.probe != 0 || fam == KernelFamily::DR ||
            (fam == KernelFamily::ND && o != Op::Mov) ||
            fam == KernelFamily::MM || fam == KernelFamily::Fmt2Mem ||
            fam == KernelFamily::Reti;
        fold_clean = !may_probe;

        addDelta(tc->tot, dl, fram_code);
    }
    tc->tot[kAccOwner0 + block.owner] = static_cast<std::uint32_t>(n);
    // The sentinel stores the fall-through PC unless the last op
    // leaves one of its own.
    if (n > 0 && !writesPc(block.instrs[n - 1].instr)) {
        tc->ops[n].h = labels_[kBlockEndPc];
        tc->ops[n].next_pc = block.instrs[n - 1].next_pc;
    } else {
        tc->ops[n].h = labels_[kBlockEnd];
    }

    // Flag liveness, backward: N/Z/C/V are live at the block end (the
    // chain may stop there) and before every op that reads them. Every
    // flag-setting op writes all four, so it kills them. A kNR writer
    // whose flags are dead runs flagless; a dead CMP or BIT, whose
    // flags are its only effect, runs kNop.
    bool live = true;
    for (std::size_t i = n; i-- > 0;) {
        const std::uint8_t fl = flow_[i];
        if ((fl & kFlowNR) && !live) {
            const int fi = flaglessOpIndex(
                static_cast<int>(block.instrs[i].instr.op) -
                static_cast<int>(Op::Mov));
            tc->ops[i].h = labels_[fi >= 0 ? kNFBase + fi : kNop];
        }
        live = (fl & kFlowReads) || (live && !(fl & kFlowKills));
    }

    // Each side exit's suffix: the totals of the ops after it.
    Totals suffix{};
    for (std::size_t i = n; i-- > 0;) {
        if (i + 1 < n && isCondJump(block.instrs[i].instr.op)) {
            Totals sx = suffix;
            sx[kAccOwner0 + block.owner] =
                static_cast<std::uint32_t>(n - 1 - i);
            // The suffix's base and stall are at most the block's
            // worst case, which a block keeps far below 2^16.
            if (sx[kAccBase] > 0xFFFF || sx[kAccStall] > 0xFFFF)
                support::fatal("side-exit suffix of the block at ",
                               support::hex16(block.start_pc),
                               " overflows its 16-bit fields");
            TOp &j = tc->ops[i];
            j.xbase = static_cast<std::uint16_t>(sx[kAccBase]);
            j.xstall = static_cast<std::uint16_t>(sx[kAccStall]);
            tc->exits.push_back({sx, static_cast<std::uint16_t>(i)});
        }
        addDelta(suffix, tc->deltas[i], fram_code);
    }

    block.threaded = std::move(tc);
    ++stats_.threaded_blocks_lowered;
}

void *
ThreadedEngine::advanceChain(void *p)
{
    DCtx &st = *static_cast<DCtx *>(p);
    const ChainLimits &limits = *st.limits;
    const bool first = st.cur_tc == nullptr;

    // lookup() may rebuild the block at the PC and drop its old code,
    // which the touched list may hold: fold what ran so far first.
    foldTouched(st);
    st.deadline = inlineDeadline(
        limits, limits.now + st.acc[kAccBase] + st.acc[kAccStall]);

    const std::uint16_t pc = st.regs[0];
    SuperblockEngine::Block *block = sb_.lookup(pc);
    if (!block)
        return nullptr;

    // A block only runs when its worst-case cycle bound provably keeps
    // every intermediate step short of the run loop's per-step checks
    // (max_cycles, fault injection, timer delivery).
    const std::uint64_t now = limits.now + st.acc[kAccBase] + st.acc[kAccStall];
    const std::uint64_t bound = block->worst_case_cycles;
    if (now + bound >= limits.limit_cycles) {
        ++stats_.threaded_bail_boundary;
        return nullptr;
    }
    if (limits.timer_period) {
        bool gie = cpu_.interruptsEnabled();
        bool pending = limits.timer_pending || now >= limits.timer_fire;
        if (gie) {
            if (pending)
                return nullptr; // interrupt entry happens this step
            if (now + bound >= limits.timer_fire) {
                ++stats_.threaded_bail_boundary;
                return nullptr;
            }
        } else if (block->writes_sr &&
                   (pending || now + bound >= limits.timer_fire)) {
            // GIE is clear, but the block could set it while the timer
            // is (or becomes) due: let the oracle sequence it. (The
            // fire cycle is fixed until delivery and time is monotone,
            // so pending-ness at the next oracle check recomputes to
            // exactly the sticky flag the per-step path would have
            // kept.)
            ++stats_.threaded_bail_boundary;
            return nullptr;
        }
    }
    // Chains never cross the recovery attribution boundary (the caller
    // books the whole chain's cycles to the entry side).
    if (sb_.inRecovery(pc) != st.chain_in_recovery)
        return nullptr;
    // Under a trace engine, owner changes and checkpoint-probe entries
    // are events the oracle's pre-step emits: chains stop before them.
    if (limits.owner != ChainLimits::kAnyOwner &&
        (block->owner != limits.owner ||
         probeIn(limits.ckpt_commit, limits.ckpt_restore,
                 block->segs.data(), block->n_segs, first)))
        return nullptr;

    if (!block->threaded)
        lower(*block);
    return enterBlock(&st, *block->threaded);
}

ThreadedEngine::ChainResult
ThreadedEngine::runChain(const ChainLimits &limits)
{
    DCtx st;
    st.regs = cpu_.regs().data();
    st.bytes = memory_.bytes();
    st.hw = &bus_.hwCache();
    st.gens = &sb_.pageGens();
    st.ws = config_.effectiveWaitStates();
    st.mx = fram::accessStall(false, st.ws, fram::kContentionStall) -
            fram::accessStall(true, st.ws, fram::kContentionStall);
    st.sram_size = config_.sram_size;
    st.code_base = bus_.codeBase();
    st.code_end = bus_.codeEnd();

    st.eng = this;
    st.sb = &sb_;
    st.limits = &limits;
    st.now0 = limits.now;
    st.deadline = inlineDeadline(limits, limits.now);
    st.chain_in_recovery = sb_.inRecovery(cpu_.pc());
    const bool one_owner = limits.owner != ChainLimits::kAnyOwner;
    st.key = static_cast<std::uint16_t>(
        (st.chain_in_recovery ? kKeyRecovery : 0) |
        (one_owner ? limits.owner : 0));
    st.key_mask = kKeyRecovery | (one_owner ? 0xFF : 0);
    st.ckpt_commit = limits.ckpt_commit;
    st.ckpt_restore = limits.ckpt_restore;

    // Enter the first block; dispatchRun then chains block-to-block
    // until a bail-out or chain end.
    TOp *op0 = chainStep<true>(&st);
    while (op0) {
        dispatchRun(&st, op0);
        if (st.bail_kind == 0)
            break; // chain ended at a block boundary

        // Mid-block bail-out (dyn operand or own-block SMC): subtract
        // the unexecuted suffix, whose base and stall cycles entry
        // added and whose other totals the fold will add.
        ThreadedCode &tc = *st.cur_tc;
        const std::size_t n = tc.deltas.size();
        const std::size_t idx =
            static_cast<std::size_t>(st.bail_op - tc.ops.data());
        const std::size_t executed = st.bail_kind == 2 ? idx + 1 : idx;
        if (executed < n) {
            Totals suffix{};
            for (std::size_t i = executed; i < n; ++i)
                addDelta(suffix, tc.deltas[i], tc.fram_code);
            suffix[kAccOwner0 + tc.owner] =
                static_cast<std::uint32_t>(n - executed);
            for (int i = 0; i < kNumAcc; ++i)
                st.acc[i] -= suffix[i];
        }
        if (st.bail_kind == 1)
            ++stats_.threaded_bail_operand;
        else
            ++stats_.threaded_bail_smc;
        if (!executed)
            --st.dispatches; // the fold counts every entry
        if (executed < n)
            break; // bailed mid-block: the oracle decides what's next
        // Committed own-block SMC on the block's last instruction:
        // the block completed, so the chain may continue (the next
        // lookup sees the bumped generations and rebuilds).
        op0 = chainStep<false>(&st);
    }
    foldTouched(st);

    std::uint64_t total = 0;
    for (int i = 0; i < kNumOwners; ++i)
        total += st.acc[kAccOwner0 + i];
    stats_.threaded_dispatches += st.dispatches;
    if (total) {
        stats_.instructions += total;
        stats_.base_cycles += st.acc[kAccBase];
        stats_.stall_cycles += st.acc[kAccStall];
        stats_.sram.fetch += st.acc[kAccSramFetch];
        stats_.sram.read += st.acc[kAccSramRead];
        stats_.sram.write += st.acc[kAccSramWrite];
        stats_.fram.fetch += st.acc[kAccFramFetch];
        stats_.fram.read += st.acc[kAccFramRead];
        stats_.fram.write += st.acc[kAccFramWrite];
        stats_.fram_cache_hits += st.acc[kAccHits] - st.miss_fix;
        stats_.fram_cache_misses += st.acc[kAccMisses] + st.miss_fix;
        stats_.code_space_accesses += st.acc[kAccCode];
        stats_.data_space_accesses += st.acc[kAccData];
        for (int i = 0; i < kNumOwners; ++i)
            stats_.instr_by_owner[i] += st.acc[kAccOwner0 + i];
        stats_.threaded_instructions += total;
    }
    return {total, st.acc[kAccBase] + st.acc[kAccStall]};
}

} // namespace swapram::sim
