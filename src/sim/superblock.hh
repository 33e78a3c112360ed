/**
 * @file
 * Block cache: straight-line groups of predecoded instructions, the
 * unit the threaded tier (sim/threaded.hh) lowers and dispatches.
 *
 * A block is built by scanning forward from a word-aligned PC,
 * decoding speculatively until a terminator:
 *   - control flow that may leave the block: JMP, a backward
 *     conditional jump, CALL, RETI, or a register destination of PC.
 *     A forward conditional jump does not end the block: it is a side
 *     exit, and the block goes on along its fall-through path, so a
 *     copy loop's `TST/JZ/MOV/INCD/DECD/JMP` iteration is one block;
 *   - a statically MMIO-or-unmapped operand (Symbolic/Absolute into
 *     device space) — such instructions always run on the oracle;
 *   - a form with no threaded kernel (kernelFamily() is None: a
 *     PC-based memory operand such as `MOV @PC, R5`, `CALL Rn`, a
 *     write other than MOV to CG2 such as `ADD R5, R3`, a memory
 *     source into CG2, RRC/RRA/SWPB/SXT of an immediate, or an
 *     unaligned static word address) — the oracle single-steps it and
 *     the chain resumes after it;
 *   - a fetch that would leave the block's memory region (or a word
 *     that is not a decodable leading word, or a PC wrap);
 *   - crossing the boot-recovery attribution boundary or a code-owner
 *     boundary (so a block has one owner, and a trace engine sees
 *     every owner change at a block start);
 *   - the size caps (kMaxBlockInstrs / kMaxBlockBytes).
 *
 * A block is a trace: when its terminator is a transfer whose target
 * is fixed at build time (JMP, `MOV #imm, PC`, `CALL #imm`), the scan
 * goes on at the target, which opens a new segment. The transfer
 * stays an ordinary op that sets PC (and pushes, for CALL), so a
 * trace runs as one dispatch across it. A target is followed only
 * when it is word-aligned, in the block's fetch region, of the same
 * owner and recovery side, not a checkpoint probe entry, neither the
 * trace's start nor inside a segment already scanned (loops are not unrolled: a self-loop still
 * ends its block), and the segment, instruction and byte caps leave
 * room (kMaxSegments; the byte cap counts every segment). A segment
 * also stops where a segment scanned before it starts, so segments
 * never overlap.
 *
 * Each instruction carries its build-time analysis: code-space fetch
 * words and the FRAM line-contention flags of its fetch stream
 * (static, because fetch addresses are). Each block carries a
 * worst-case cycle bound, so the dispatcher can refuse a block that
 * might cross a fault, timer, or max-cycles boundary, and whether it
 * may write SR.
 *
 * It is a fast-tier run's one decode cache (no predecode cache
 * exists then). Every store bumps per-page write generations
 * (PageGenTable) which blocks validate at lookup; a block records the
 * generation of every page any of its segments read.
 * A block first compares the code-write epoch it recorded when it was
 * stamped: while no store has reached a page any stamped block spans,
 * the epoch holds and the block is current without reading a page
 * generation. Otherwise its generations decide, and a block that
 * passes them records the new epoch (no store reached its pages, so
 * their code marks are still set). A block whose pages were written
 * is revalidated by its bytes: if everything build() read, in every
 * segment, still reads the same, it is re-stamped and kept together
 * with its lowered code, else rebuilt. A rebuilt block keeps the block
 * it replaced: when the bytes it read come back (SwapRAM under
 * capacity pressure copies a function back to the address it was
 * evicted from), that block and its lowered code are re-stamped
 * instead of built again. build() reads past a segment's last
 * instruction when the scan stopped at an undecodable word or a
 * static-MMIO operand, so the snapshot covers that "scan end" too.
 * Bulk changes behind the bus (image load, power cycle, owner or
 * recovery ranges) bump a global generation (and the epoch) that
 * rebuilds every block, whatever its bytes.
 */

#ifndef SWAPRAM_SIM_SUPERBLOCK_HH
#define SWAPRAM_SIM_SUPERBLOCK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "sim/bus.hh"
#include "sim/config.hh"
#include "sim/memory.hh"
#include "sim/pagegen.hh"
#include "sim/stats.hh"
#include "support/platform.hh"

namespace swapram::sim {

/** Lowered (computed-goto) form of one block; owned by the block so
 *  every invalidation path drops it together with the decode. Defined
 *  by the threaded tier (sim/threaded.cc). */
class ThreadedCode;

/** The threaded tier's kernel families (sim/threaded.cc): how a block
 *  instruction runs there. The block builder ends a block before an
 *  instruction of family None, and lowering runs every other one on
 *  its family's kernel. */
enum class KernelFamily : std::uint8_t {
    /** No kernel: a PC-based memory operand (`@PC`; inside a block
     *  the PC register is not kept current), `CALL Rn`, a CG2
     *  destination other than `MOV imm/reg, R3`, RRC/RRA/SWPB/SXT of
     *  an immediate, or a word access to an odd static address. */
    None,
    NR,      ///< imm/reg source -> register destination
    MR,      ///< static memory source -> register destination
    NM,      ///< imm/reg source -> static memory destination
    DR,      ///< register-based memory source -> register destination
    ND,      ///< imm/reg source -> Indexed destination
    MM,      ///< memory source -> memory destination
    Nop,     ///< MOV of an imm/reg source to CG2: the write is lost
    Fmt2Reg, ///< RRC, RRA, SWPB or SXT of a register
    Push,    ///< PUSH of a register or an immediate
    CallImm, ///< CALL #imm
    Fmt2Mem, ///< RRC, RRA, SWPB, SXT, PUSH or CALL of a memory operand
    Reti,
    Jmp,
    Jcc, ///< a conditional jump
};

/** The kernel family of @p in: the one decision of which forms the
 *  threaded tier runs, shared by the block builder and lowering. */
KernelFamily kernelFamily(const isa::Instr &in);

/** The block cache: builds, validates, and looks up straight-line
 *  blocks for the threaded tier. */
class SuperblockEngine
{
  public:
    static constexpr std::uint32_t kMaxBlockInstrs = 32;
    /** Code bytes before a block's last instruction, over all its
     *  segments. */
    static constexpr std::uint32_t kMaxBlockBytes = 120;
    /** Most bytes one build reads: an instruction (at most 6 bytes)
     *  may start 2 bytes short of kMaxBlockBytes. */
    static constexpr std::uint32_t kMaxScanBytes = kMaxBlockBytes + 4;
    /** Most contiguous code ranges one trace joins. */
    static constexpr std::uint32_t kMaxSegments = 4;
    /** Most gen pages a build reads: a segment of L bytes spans at
     *  most (L - 1) / 64 + 2 pages, and the segments' lengths add up
     *  to at most kMaxScanBytes. */
    static constexpr std::uint32_t kMaxBlockPages =
        kMaxScanBytes / (1u << PageGenTable::kPageShift) +
        2 * kMaxSegments;

    /** One pre-analysed instruction. */
    struct BlockInstr {
        isa::Instr instr{};
        std::uint16_t pc = 0;
        std::uint16_t next_pc = 0;
        std::uint8_t n_words = 1;
        std::uint8_t base_cycles = 0;
        std::uint8_t code_words = 0; ///< fetch words inside .text
        /** FRAM fetch line-contention flags (static: the 2nd+ FRAM
         *  access of an instruction contends iff it changes 8-byte
         *  line; fetches come first and their addresses are fixed). */
        std::array<std::uint8_t, 3> fetch_contends{};
        /** 8-byte line of the last fetch word (seeds the data-access
         *  contention chain when fetching from FRAM). */
        std::uint32_t last_fetch_line = 0;
    };

    /** One contiguous code range of a trace. */
    struct Segment {
        std::uint16_t start = 0;
        std::uint32_t end = 0; ///< one past its last code byte
        /** One past the last byte build() read: end, or past the
         *  undecodable word or static-MMIO instruction that stopped
         *  the scan. */
        std::uint32_t scan_end = 0;
    };

    /** A built block (instrs empty = tombstone: PC known unblockable,
     *  revalidated like any block). The fields peek() reads on its
     *  fast path lead the first cache line. */
    struct alignas(64) Block {
        /** The code epoch at the last stamp or generation match. */
        std::uint64_t epoch = 0;
        /** Lazily lowered threaded code (null until the threaded tier
         *  first dispatches this block; dropped with the block). */
        std::shared_ptr<ThreadedCode> threaded;
        // Generation snapshot of every page the segments' scans read
        // (each page once), and the global generation.
        std::uint64_t global_gen = 0;
        std::uint8_t n_pages = 0;
        std::array<std::uint16_t, kMaxBlockPages> pages{};
        std::array<std::uint64_t, kMaxBlockPages> page_gens{};
        std::uint16_t start_pc = 0;
        std::uint8_t owner = 0; ///< CodeOwner of every instruction
        /** Some instruction may write SR (GIE): gates dispatch while a
         *  timer interrupt is or may become pending. */
        bool writes_sr = false;
        /** Upper bound on total cycles one execution can cost. */
        std::uint32_t worst_case_cycles = 0;

        RegionKind fetch_region = RegionKind::Fram;
        std::vector<BlockInstr> instrs;
        /** The trace's segments in execution order; the first starts
         *  at start_pc. */
        std::uint8_t n_segs = 0;
        std::array<Segment, kMaxSegments> segs{};
        /** The segments' scanned bytes as read, back to back. */
        std::array<std::uint8_t, kMaxScanBytes> bytes{};
        /** The block this one's build replaced in its slot (null when
         *  none), kept to be revived when its bytes come back. */
        std::unique_ptr<Block> replaced;
    };

    /** True when [@p addr, @p addr + @p n) overlaps the code of one of
     *  the @p n_segs segments at @p segs (the SMC check). */
    static bool
    overlapsCode(const Segment *segs, std::uint8_t n_segs,
                 std::uint32_t addr, unsigned n)
    {
        for (std::uint8_t i = 0; i < n_segs; ++i)
            if (addr < segs[i].end && addr + n > segs[i].start)
                return true;
        return false;
    }

    /** Owner classification of an address: its CodeOwner, and the end
     *  of the run of addresses from it that classify the same way. */
    struct OwnerRun {
        std::uint8_t owner = 0;
        std::uint32_t end = 0x10000;
    };

    SuperblockEngine(Memory &memory, Bus &bus, Stats &stats,
                     const MachineConfig &config);
    ~SuperblockEngine();
    SuperblockEngine(const SuperblockEngine &) = delete;
    SuperblockEngine &operator=(const SuperblockEngine &) = delete;

    /** Owner classification (Machine::ownerRun): blocks end at owner
     *  boundaries and pre-attribute instr_by_owner. Build-time only,
     *  asked once per segment (and again where a run ends). */
    void setClassifier(std::function<OwnerRun(std::uint16_t)> fn)
    {
        classify_ = std::move(fn);
    }

    /** Blocks must not span this attribution boundary. */
    void
    setRecoveryRange(std::uint16_t base, std::uint32_t end)
    {
        recovery_base_ = base;
        recovery_end_ = end;
        invalidateAll();
    }

    /** Checkpoint probe entries (0: none). A trace does not follow a
     *  static transfer to one: the probe then starts a block, where a
     *  traced chain stops before it, instead of sitting in a later
     *  segment and sending the whole trace to the oracle. */
    void
    setProbeEntries(std::uint16_t commit, std::uint16_t restore)
    {
        probe_commit_ = commit;
        probe_restore_ = restore;
        invalidateAll();
    }

    /** True when @p pc lies in the recovery range (false if none). */
    bool
    inRecovery(std::uint16_t pc) const
    {
        return recovery_end_ && pc >= recovery_base_ &&
               static_cast<std::uint32_t>(pc) < recovery_end_;
    }

    /** The write-generation table (the Bus holds a pointer too). */
    PageGenTable &pageGens() { return gens_; }

    /** Memory changed behind the bus (image load, power cycle) or the
     *  static analysis inputs changed (owner ranges): every cached
     *  block is suspect. */
    void invalidateAll() { gens_.bumpAll(); }

    /**
     * The valid block starting at @p pc, building one if needed.
     * Returns nullptr when no block can start here (odd PC, MMIO or
     * unmapped fetch region, undecodable word, or a leading
     * instruction that must single-step). Non-const so the threaded
     * tier can attach lowered code to the block.
     */
    Block *lookup(std::uint16_t pc);

    /**
     * The block table's entry at @p pc when it is still current (its
     * epoch, else its generation snapshot) — no byte compare, no
     * build, no counters; nullptr for an odd PC, an empty slot, or
     * moved generations. May return a tombstone or a block not yet
     * lowered. The threaded tier's inline chain step; lookup() decides
     * whatever this does not.
     */
    Block *
    peek(std::uint16_t pc)
    {
        if (pc & 1)
            return nullptr;
        Block *b = blocks_[pc >> 1];
        return b && current(*b) ? b : nullptr;
    }

    /** True when @p addr lies in plain memory (SRAM or FRAM) — the
     *  only space the fast paths may touch directly. MachineConfig's
     *  sram_size shapes the mapped window (capacity-pressure runs
     *  shrink or grow the SRAM). */
    static bool
    addrMapped(std::uint16_t addr, std::uint32_t sram_size)
    {
        return addr >= platform::kFramBase ||
               static_cast<std::uint16_t>(addr - platform::kSramBase) <
                   sram_size;
    }

  private:
    std::unique_ptr<Block> build(std::uint16_t pc);
    /** The end of the run from @p at where @p b's current segment may
     *  go on: the same owner and recovery side as @p b, and short of
     *  every segment that starts at or above @p at; @p at itself when
     *  no instruction of @p b may start there. */
    std::uint32_t runEnd(const Block &b, std::uint32_t at,
                         bool in_recovery) const;
    /** Record the current generations and code epoch of @p b's
     *  pages, and mark them as code. */
    void stamp(Block &b);
    /** True when no store or bulk change reached @p b's pages since
     *  it was stamped. */
    bool
    gensMatch(const Block &b) const
    {
        std::uint64_t diff = b.global_gen ^ gens_.globalGen();
        for (std::uint8_t i = 0; i < b.n_pages; ++i)
            diff |= b.page_gens[i] ^ gens_.pageGen(b.pages[i]);
        return diff == 0;
    }
    /** True when no store or bulk change reached @p b's pages since
     *  it was stamped: its epoch is current, or its generations match
     *  and it records the current epoch. */
    bool
    current(Block &b) const
    {
        if (b.epoch == gens_.codeEpoch())
            return true;
        if (!gensMatch(b))
            return false;
        b.epoch = gens_.codeEpoch();
        return true;
    }
    /** True when @p b still decodes as built (re-stamped when only
     *  its pages' generations moved). */
    bool revalidate(Block &b);
    /** True when no bulk change happened since @p b was stamped and
     *  everything its build read still reads the same. */
    bool bytesMatch(const Block &b) const;

    Memory &memory_;
    Bus &bus_;
    Stats &stats_;
    const MachineConfig &config_;

    PageGenTable gens_;
    std::function<OwnerRun(std::uint16_t)> classify_;

    std::uint16_t recovery_base_ = 0;
    std::uint32_t recovery_end_ = 0; ///< 0 = no recovery range

    /** build()'s scratch list of decoded instructions. */
    std::vector<BlockInstr> scan_;

    /** Direct-mapped block table, one slot per word-aligned PC; a
     *  slot owns its block. */
    std::unique_ptr<Block *[]> blocks_;
    /** The slots ever filled (a filled slot stays filled): the only
     *  ones teardown visits. */
    std::vector<std::uint16_t> filled_;

    std::uint16_t probe_commit_ = 0; ///< see setProbeEntries
    std::uint16_t probe_restore_ = 0;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_SUPERBLOCK_HH
