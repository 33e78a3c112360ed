#include "sim/superblock.hh"

#include <algorithm>
#include <cstring>

#include "isa/cycles.hh"
#include "isa/decode.hh"
#include "sim/fram_timing.hh"

namespace swapram::sim {

using isa::Mode;
using isa::Op;
using isa::Operand;

namespace {

/** Block-table geometry: one slot per word-aligned PC. */
constexpr std::uint32_t kSlots = 32768;

/** Build-time classification of one decoded instruction. */
struct Analysis {
    bool include = true;     ///< false: stop the block before it
    bool terminator = false; ///< include it, then stop
    bool writes_sr = false;  ///< may write SR (GIE)
    std::uint32_t max_data = 0; ///< data accesses upper bound
};

Analysis
analyze(const isa::Instr &in, std::uint16_t pc, std::uint32_t sram_size)
{
    Analysis a;
    auto static_ok = [sram_size](const Operand &op) {
        // Symbolic/Absolute effective addresses are fixed at decode:
        // reject device/unmapped space once, at build time.
        if (op.mode == Mode::Symbolic || op.mode == Mode::Absolute)
            return SuperblockEngine::addrMapped(op.value, sram_size);
        return true;
    };
    auto is_mem = [](const Operand &op) {
        return op.mode != Mode::Register && op.mode != Mode::Immediate;
    };
    // A form no kernel covers runs on the oracle, as a static MMIO
    // operand does.
    if (kernelFamily(in) == KernelFamily::None) {
        a.include = false;
        return a;
    }
    switch (isa::opFormat(in.op)) {
      case isa::OpFormat::Jump:
        // A forward conditional jump is a side exit: the block goes on
        // along its fall-through path (loop exits and skipped
        // statements). JMP and backward jumps, mostly taken, end it.
        a.terminator = in.op == Op::Jmp || in.jump_target <= pc;
        return a;
      case isa::OpFormat::DoubleOperand: {
        if (!static_ok(in.src) || !static_ok(in.dst)) {
            a.include = false;
            return a;
        }
        if (in.dst.mode == Mode::Register) {
            a.terminator = in.dst.reg == isa::Reg::PC;
            a.writes_sr = in.dst.reg == isa::Reg::SR;
        }
        a.max_data = (is_mem(in.src) ? 1u : 0u) +
                     (is_mem(in.dst) ? 2u : 0u);
        return a;
      }
      case isa::OpFormat::SingleOperand: {
        if (in.op == Op::Reti) {
            // Pops SR (may set GIE) and PC off a dynamic SP.
            a.terminator = true;
            a.writes_sr = true;
            a.max_data = 2;
            return a;
        }
        if (!static_ok(in.dst)) {
            a.include = false;
            return a;
        }
        if (in.op == Op::Call)
            a.terminator = true;
        if (in.dst.mode == Mode::Register && in.op != Op::Push &&
            in.op != Op::Call) {
            a.terminator = in.dst.reg == isa::Reg::PC; // e.g. RRA PC
            a.writes_sr = in.dst.reg == isa::Reg::SR;
        }
        a.max_data = 2;
        return a;
      }
    }
    return a;
}

/** The target of a transfer that is fixed at build time — JMP,
 *  `MOV #imm, PC` (BR) or `CALL #imm` — or -1. */
std::int32_t
staticTarget(const isa::Instr &in)
{
    if (in.op == Op::Jmp)
        return in.jump_target;
    if (in.op == Op::Mov && !in.byte && in.src.mode == Mode::Immediate &&
        in.dst.mode == Mode::Register && in.dst.reg == isa::Reg::PC)
        return in.src.value;
    if (in.op == Op::Call && in.dst.mode == Mode::Immediate)
        return in.dst.value;
    return -1;
}

} // namespace

KernelFamily
kernelFamily(const isa::Instr &in)
{
    // A memory operand based on PC: the kernels take a register's
    // value from the register file, where inside a block PC is not
    // kept current.
    auto pc_based = [](const Operand &op) {
        return (op.mode == Mode::Indexed || op.mode == Mode::Indirect ||
                op.mode == Mode::IndirectInc) &&
               op.reg == isa::Reg::PC;
    };
    auto is_static = [](const Operand &op) {
        return op.mode == Mode::Symbolic || op.mode == Mode::Absolute;
    };
    // A word access to an odd static address, which the oracle's bus
    // reports as a fatal.
    auto odd_word = [&](const Operand &op, bool word) {
        return word && is_static(op) && (op.value & 1);
    };
    auto nonmem = [](const Operand &op) {
        return op.mode == Mode::Register || op.mode == Mode::Immediate;
    };
    const Operand &s = in.src;
    const Operand &d = in.dst;
    switch (isa::opFormat(in.op)) {
      case isa::OpFormat::Jump:
        return in.op == Op::Jmp ? KernelFamily::Jmp : KernelFamily::Jcc;
      case isa::OpFormat::DoubleOperand:
        if (pc_based(s) || odd_word(s, !in.byte) || odd_word(d, !in.byte))
            return KernelFamily::None;
        if (d.mode == Mode::Register) {
            if (d.reg == isa::Reg::CG2)
                return in.op == Op::Mov && nonmem(s) ? KernelFamily::Nop
                                                     : KernelFamily::None;
            if (nonmem(s))
                return KernelFamily::NR;
            return is_static(s) ? KernelFamily::MR : KernelFamily::DR;
        }
        if (nonmem(s))
            return is_static(d) ? KernelFamily::NM : KernelFamily::ND;
        return KernelFamily::MM;
      case isa::OpFormat::SingleOperand: {
        if (in.op == Op::Reti)
            return KernelFamily::Reti;
        // SWPB, SXT and CALL access a word whatever their B/W bit says.
        const bool word = !in.byte || (in.op != Op::Rrc &&
                                       in.op != Op::Rra && in.op != Op::Push);
        if (pc_based(d) || odd_word(d, word))
            return KernelFamily::None;
        if (!nonmem(d))
            return KernelFamily::Fmt2Mem;
        if (in.op == Op::Push)
            return KernelFamily::Push;
        if (in.op == Op::Call)
            return d.mode == Mode::Immediate ? KernelFamily::CallImm
                                             : KernelFamily::None;
        return d.mode == Mode::Register && d.reg != isa::Reg::CG2
                   ? KernelFamily::Fmt2Reg
                   : KernelFamily::None;
      }
    }
    return KernelFamily::None;
}

SuperblockEngine::SuperblockEngine(Memory &memory, Bus &bus,
                                   Stats &stats,
                                   const MachineConfig &config)
    : memory_(memory), bus_(bus), stats_(stats), config_(config),
      blocks_(new Block *[kSlots]())
{
    scan_.reserve(kMaxBlockInstrs);
}

SuperblockEngine::~SuperblockEngine()
{
    for (std::uint16_t slot : filled_)
        delete blocks_[slot];
}

std::uint32_t
SuperblockEngine::runEnd(const Block &b, std::uint32_t at,
                         bool in_recovery) const
{
    const auto pc = static_cast<std::uint16_t>(at);
    if (inRecovery(pc) != in_recovery)
        return at;
    const OwnerRun run = classify_ ? classify_(pc) : OwnerRun{};
    if (run.owner != b.owner)
        return at;
    std::uint32_t end = run.end;
    if (recovery_end_) {
        end = std::min(end, in_recovery          ? recovery_end_
                            : at < recovery_base_ ? recovery_base_
                                                  : 0x10000u);
    }
    // Every segment but the one being scanned (the last).
    for (std::uint8_t i = 0; i + 1 < b.n_segs; ++i)
        if (b.segs[i].start >= at)
            end = std::min<std::uint32_t>(end, b.segs[i].start);
    return end;
}

std::unique_ptr<SuperblockEngine::Block>
SuperblockEngine::build(std::uint16_t pc)
{
    auto b = std::make_unique<Block>();
    b->start_pc = pc;
    b->n_segs = 1;
    b->segs[0] = {pc, pc, pc};
    b->fetch_region = regionOf(pc, config_.sramEnd());
    b->owner = classify_ ? classify_(pc).owner : 0;

    // The most any one FRAM access can stall: a contending miss.
    const std::uint32_t stall_max = fram::accessStall(
        false, config_.effectiveWaitStates(), fram::kContentionStall);
    const std::uint16_t code_base = bus_.codeBase();
    const std::uint32_t code_end = bus_.codeEnd();
    const bool fram_code = b->fetch_region == RegionKind::Fram;
    std::uint32_t worst = 0;

    if (b->fetch_region == RegionKind::Sram ||
        b->fetch_region == RegionKind::Fram) {
        const bool block_in_recovery = inRecovery(pc);
        const std::uint32_t region_end =
            fram_code ? 0x10000u : config_.sramEnd();
        // A followed transfer's target lies in the region, outside
        // every segment scanned so far, and is no probe entry.
        auto followable = [&](std::int32_t target) {
            if (target < 0 || (target & 1) ||
                regionOf(static_cast<std::uint16_t>(target),
                         config_.sramEnd()) != b->fetch_region)
                return false;
            if ((probe_commit_ && target == probe_commit_) ||
                (probe_restore_ && target == probe_restore_))
                return false;
            for (std::uint8_t i = 0; i < b->n_segs; ++i) {
                const Segment &sg = b->segs[i];
                if (static_cast<std::uint32_t>(target) >= sg.start &&
                    static_cast<std::uint32_t>(target) < sg.scan_end)
                    return false;
            }
            return true;
        };
        // Scanned into scan_, then copied to the block in one
        // allocation.
        scan_.clear();
        std::uint32_t used = 0; ///< bytes the earlier segments read
        std::uint32_t cur = pc;
        // Where the current segment's owner and recovery run ends (or
        // an earlier segment starts); recomputed when cur reaches it.
        std::uint32_t stop = cur;
        while (scan_.size() < kMaxBlockInstrs) {
            Segment &seg = b->segs[b->n_segs - 1];
            if (used + (cur - seg.start) >= kMaxBlockBytes)
                break;
            if (cur >= stop && (stop = runEnd(*b, cur, block_in_recovery)) <=
                                   cur)
                break; // recovery or owner boundary, or an earlier segment
            std::uint16_t w0 =
                memory_.read16(static_cast<std::uint16_t>(cur));
            seg.scan_end = cur + 2;
            if (!isa::validLeadingWord(w0))
                break; // garbage: only the oracle may diagnose it
            isa::Shape shape = isa::decodeShape(w0);
            int n_words = 1 + shape.totalExt();
            std::uint32_t end = cur + 2 * static_cast<std::uint32_t>(
                                          n_words);
            if (end > region_end)
                break; // region-crossing fetch, or a PC wrap
            std::uint16_t ext_src =
                shape.src_ext
                    ? memory_.read16(static_cast<std::uint16_t>(cur + 2))
                    : 0;
            std::uint16_t ext_dst =
                shape.dst_ext
                    ? memory_.read16(static_cast<std::uint16_t>(
                          cur + 2 + (shape.src_ext ? 2 : 0)))
                    : 0;
            seg.scan_end = end;
            isa::Instr instr = isa::decodeWords(
                w0, ext_src, ext_dst, static_cast<std::uint16_t>(cur));
            Analysis a = analyze(instr, static_cast<std::uint16_t>(cur),
                                 config_.sram_size);
            if (!a.include)
                break; // statically MMIO/unmapped operand

            BlockInstr &bi = scan_.emplace_back();
            bi.instr = instr;
            bi.pc = static_cast<std::uint16_t>(cur);
            bi.next_pc = static_cast<std::uint16_t>(end);
            bi.n_words = static_cast<std::uint8_t>(n_words);
            bi.base_cycles =
                static_cast<std::uint8_t>(isa::baseCycles(instr));
            fram::LineChain fetch_chain;
            for (int w = 0; w < n_words; ++w) {
                std::uint16_t waddr =
                    static_cast<std::uint16_t>(cur + 2 * w);
                if (fram::inCode(waddr, code_base, code_end))
                    ++bi.code_words;
                if (fram_code) {
                    bi.fetch_contends[w] = fetch_chain.next(waddr);
                    bi.last_fetch_line = fetch_chain.last_line;
                }
            }
            b->writes_sr = b->writes_sr || a.writes_sr;
            worst += bi.base_cycles +
                     stall_max * ((fram_code ? n_words : 0) + a.max_data);
            seg.end = end;
            cur = end;
            if (!a.terminator) {
                if (end >= 0x10000)
                    break;
                continue;
            }
            // A transfer whose target is fixed: the trace goes on
            // there, in a new segment unless it is the next address.
            const std::int32_t target = staticTarget(instr);
            if (!followable(target))
                break;
            if (static_cast<std::uint32_t>(target) != end) {
                if (b->n_segs == kMaxSegments)
                    break;
                used += seg.scan_end - seg.start;
                cur = static_cast<std::uint32_t>(target);
                b->segs[b->n_segs++] = {static_cast<std::uint16_t>(cur),
                                        cur, cur};
                stop = cur;
            }
        }
        // A segment opened at a target where no instruction may start
        // read nothing: drop it.
        const Segment &last = b->segs[b->n_segs - 1];
        if (b->n_segs > 1 && last.scan_end == last.start)
            --b->n_segs;
        b->instrs.assign(scan_.begin(), scan_.end());
    }

    b->worst_case_cycles = worst;
    std::uint8_t *snap = b->bytes.data();
    for (std::uint8_t i = 0; i < b->n_segs; ++i) {
        const Segment &sg = b->segs[i];
        std::memcpy(snap, memory_.bytes() + sg.start, sg.scan_end - sg.start);
        snap += sg.scan_end - sg.start;
    }
    stamp(*b);
    return b;
}

void
SuperblockEngine::stamp(Block &b)
{
    b.global_gen = gens_.globalGen();
    b.n_pages = 0;
    auto add = [&b](std::uint16_t page) {
        for (std::uint8_t i = 0; i < b.n_pages; ++i)
            if (b.pages[i] == page)
                return;
        b.pages[b.n_pages++] = page;
    };
    // A tombstone read nothing, but is stamped at its start.
    add(PageGenTable::pageOf(b.start_pc));
    for (std::uint8_t i = 0; i < b.n_segs; ++i) {
        const Segment &sg = b.segs[i];
        if (sg.scan_end == sg.start)
            continue;
        const std::uint16_t last = PageGenTable::pageOf(
            static_cast<std::uint16_t>(sg.scan_end - 1));
        for (std::uint16_t p = PageGenTable::pageOf(sg.start); p <= last;
             ++p)
            add(p);
    }
    for (std::uint8_t i = 0; i < b.n_pages; ++i) {
        b.page_gens[i] = gens_.pageGen(b.pages[i]);
        gens_.markCode(b.pages[i]);
    }
    b.epoch = gens_.codeEpoch();
}

bool
SuperblockEngine::bytesMatch(const Block &b) const
{
    // Load, power cycle, owner or recovery ranges: what build() would
    // make may differ even where every byte is the same.
    if (b.global_gen != gens_.globalGen())
        return false;
    const std::uint8_t *snap = b.bytes.data();
    for (std::uint8_t i = 0; i < b.n_segs; ++i) {
        const Segment &sg = b.segs[i];
        const std::uint32_t len = sg.scan_end - sg.start;
        if (std::memcmp(snap, memory_.bytes() + sg.start, len) != 0)
            return false;
        snap += len;
    }
    return true;
}

bool
SuperblockEngine::revalidate(Block &b)
{
    if (current(b))
        return true;
    // A store landed on a page the scan read (often data beside the
    // code, or a copy-in of the same function): keep the block if what
    // it read is unchanged.
    if (!bytesMatch(b))
        return false;
    stamp(b);
    return true;
}

SuperblockEngine::Block *
SuperblockEngine::lookup(std::uint16_t pc)
{
    if (pc & 1)
        return nullptr; // the oracle owns the odd-PC fatal
    Block *&slot = blocks_[pc >> 1];
    std::unique_ptr<Block> stale;
    if (slot) {
        if (revalidate(*slot))
            return slot->instrs.empty() ? nullptr : slot;
        ++stats_.superblock_invalidations;
        std::unique_ptr<Block> prev = std::move(slot->replaced);
        if (prev && bytesMatch(*prev)) {
            // The code the last rebuild replaced is back: revive it.
            // Links to it were recorded under an epoch the store that
            // replaced it has since advanced, so none is followed.
            prev->replaced.reset(slot);
            slot = prev.release();
            stamp(*slot);
            return slot->instrs.empty() ? nullptr : slot;
        }
        stale.reset(slot);
    } else {
        filled_.push_back(static_cast<std::uint16_t>(pc >> 1));
    }
    std::unique_ptr<Block> fresh = build(pc);
    fresh->replaced = std::move(stale);
    slot = fresh.release();
    if (slot->instrs.empty())
        return nullptr;
    ++stats_.superblock_blocks_built;
    return slot;
}

} // namespace swapram::sim
