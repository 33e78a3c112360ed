/**
 * @file
 * Threaded-code dispatcher, the Machine's fast tier: blocks from
 * the block cache (sim/superblock.hh) are lowered, once, to
 * computed-goto threaded code over pre-resolved operand closures, then
 * executed as an indirect-goto chain — no per-instruction decode, one
 * live accumulator for the whole chain. Whatever the chain cannot run
 * falls back to the single-step oracle.
 *
 * Lowering happens lazily at the first dispatch of a (built and
 * validated) block. Each instruction is resolved to the kernel of its
 * family (kernelFamily, sim/superblock.hh) plus flattened operands:
 *   - immediate and register sources become a direct uint8_t* into the
 *     op's own immediate cell or the register file;
 *   - Symbolic/Absolute operands become a direct uint8_t* into the flat
 *     memory array, with their region counters, code/data
 *     classification, and FRAM wait-state/contention stalls folded into
 *     static per-block totals at lowering time;
 *   - FRAM fetch streams collapse to at most two hardware-cache line
 *     probes per instruction (three sequential fetch words span at most
 *     two 8-byte lines; the followers are guaranteed hits with zero
 *     stall and fold into the static totals);
 *   - the statics book every fetch and static data probe as a hit: at
 *     run time a probe only asks the hardware cache, and a miss adds
 *     its extra stall and a miss fix that the flush moves from hits to
 *     misses;
 *   - register-dependent operands keep an inline mapped-space pre-check
 *     and fully dynamic accounting.
 * Kernels do only the dynamic work a later op, a bail-out or the chain
 * step can observe. A backward flag-liveness pass gives a flag-setting
 * register op whose flags the block overwrites unread a flagless
 * kernel (kNop for CMP/BIT); such an op followed by a conditional jump
 * runs fused with it, the condition taken from the ALU outcome.
 * Register kernels store no PC: a PC source reads the op's own
 * fall-through cell, an operand bail-out restores the op's address,
 * and the block-end sentinel stores the fall-through when the last op
 * leaves none of its own.
 * Every kernel computes its result, flags and jump condition through
 * the ALU of sim/exec.hh (fmt1Alu, fmt2Alu, setF, flagIndex and
 * kJumpTruth), the functions the oracle's ExecCore calls too.
 * A form without a kernel never reaches lowering: the block builder
 * ends the block before it, so the oracle single-steps it and the
 * next chain starts after it. Static and dynamic accounting alike
 * apply the FRAM cost model of sim/fram_timing.hh, as the bus does.
 *
 * The step from block to block is an inline head at the block-end
 * sentinel with advanceChain as its out-of-line tail. The head
 * follows one of the finished block's two successor links when its
 * recorded code epoch (sim/pagegen.hh) is still current, else peeks
 * the block table (epoch, then generations; no byte compare) and
 * links what it finds; either way a deadline compare, one masked key
 * compare and the checkpoint-probe check decide entry. A link's
 * target code can only be dropped by a rebuild, which needs a store
 * to the target's pages or a bulk change, and both advance the epoch:
 * a stale link is never followed.
 * Entry adds only a block's static base and stall cycles and counts
 * the execution; the other static totals are applied at chain end,
 * times each block's execution count. Each op also carries its own
 * static delta so the rare bail-outs can walk the unexecuted suffix
 * and subtract it back. A forward conditional jump inside a block is
 * a side exit: taken, it subtracts the base and stall totals of the
 * ops after it, precomputed into its own op at lowering, counts itself
 * there for the chain-end fold to take back the rest, and steps on as
 * at the block end. A block is a trace whose segments follow JMP,
 * BR #imm and CALL #imm (sim/superblock.hh): those transfers run as
 * ordinary ops, and a chain step happens only where the next PC is
 * decided at run time or the trace had to stop. Every case the chain cannot
 * prove identical to the oracle is a guard back to it:
 *   - dyn-operand MMIO/unmapped pre-check (nothing committed; the PC
 *     is restored to the op's own);
 *   - a store into the code of any of the block's segments (static
 *     addresses checked at lowering, dynamic ones against the window
 *     bounding the segments, then each segment; committed, then
 *     stop);
 *   - fault/timer/max-cycle worst-case-bound refusal before dispatch;
 *   - the profiler, metrics, and per-step trace categories force the
 *     oracle (Machine::run picks the oracle tier with them attached);
 *     other trace events are the Machine's pre-step events, so under
 *     a trace engine chains end before owner changes and checkpoint
 *     probes (ChainLimits::owner, ckpt_commit/ckpt_restore).
 *
 * A store's one invalidation duty here is the page-generation bump:
 * Machine::run builds only the block cache for a run that dispatches.
 * The tier needs the GNU computed-goto extension (GCC or Clang, which
 * the library requires anyway). Simulated results are bit-identical
 * to the oracle's — the differential fuzz twins and the golden matrix
 * pin this.
 */

#ifndef SWAPRAM_SIM_THREADED_HH
#define SWAPRAM_SIM_THREADED_HH

#include <cstdint>
#include <vector>

#include "sim/bus.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/memory.hh"
#include "sim/stats.hh"
#include "sim/superblock.hh"

namespace swapram::sim {

/** Computed-goto dispatch over lowered blocks. */
class ThreadedEngine
{
  public:
    /** The engine shares the block cache's table, page-generation
     *  invalidation, code epoch, and recovery boundary; lowered code
     *  hangs off each Block, so every invalidation path (stale
     *  generations, image load, power cycle) drops it for free. */
    ThreadedEngine(Cpu &cpu, Memory &memory, Bus &bus, Stats &stats,
                   const MachineConfig &config, SuperblockEngine &sb);

    /** Cycle boundaries a chain must respect (Machine's per-step
     *  run-loop checks, precomputed once per chain). */
    struct ChainLimits {
        /** Stats::totalCycles() at chain entry. */
        std::uint64_t now = 0;
        /** Blocks must end strictly below this total-cycle count —
         *  min(max_cycles, next scheduled fault). */
        std::uint64_t limit_cycles = UINT64_MAX;
        /** Timer period (0 = no timer) and its pending state. */
        std::uint64_t timer_period = 0;
        std::uint64_t timer_fire = 0;
        bool timer_pending = false;

        static constexpr std::uint8_t kAnyOwner = 0xFF;
        /** Every block must belong to this code owner (kAnyOwner:
         *  chains may cross owner changes). */
        std::uint8_t owner = kAnyOwner;
        /** With an owner set, chains also stop before a block whose
         *  code, in any segment, holds either PC (0 = none; no block
         *  holds 0, which is device space). */
        std::uint16_t ckpt_commit = 0;
        std::uint16_t ckpt_restore = 0;
    };

    struct ChainResult {
        std::uint64_t instructions = 0; ///< retired by the chain
        std::uint64_t cycles = 0;       ///< base+stall added
    };

    /**
     * Dispatch consecutive lowered blocks starting at the current PC
     * until a bail-out, a missing block, or a cycle boundary, updating
     * registers, memory, and Stats exactly as that many oracle steps
     * would. instructions == 0 means the caller must single-step the
     * oracle. Chains never cross the recovery-range boundary (every
     * block's cycles attribute the same way); with a recovery range
     * set, all retired cycles belong to the entry PC's side. A chain
     * emits no trace events.
     */
    ChainResult runChain(const ChainLimits &limits);

    /**
     * Out-of-line tail of the block transition, taken whenever the
     * inline step cannot enter the block at the current PC by link or
     * peek, deadline and key alone: folds the blocks run so far
     * (a rebuild may drop their code), then looks up (revalidating by
     * bytes, rebuilding), guards (cycle boundary, timer, recovery
     * side, owner, checkpoint probes), lazily lowers, and enters the
     * block. Returns its op array, or nullptr when the chain must end.
     * Takes and returns opaque pointers because the dispatch context
     * and op types are internal to the implementation — this is
     * public only so the file-local dispatch loop can call it without
     * re-entering the (register-heavy) dispatch function once per
     * block.
     */
    void *advanceChain(void *ctx);

  private:
    /** Lower a validated block to threaded code (attached to it). */
    void lower(SuperblockEngine::Block &block);

    Cpu &cpu_;
    Memory &memory_;
    Bus &bus_;
    Stats &stats_;
    const MachineConfig &config_;
    SuperblockEngine &sb_;

    /** Kernel label table, fetched once from the dispatch function. */
    const void *const *labels_ = nullptr;
    /** lower()'s per-op flag-liveness facts, kept to reuse the buffer. */
    std::vector<std::uint8_t> flow_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_THREADED_HH
