/**
 * @file
 * Machine: composes memory, bus, MMIO, and CPU; loads an assembled
 * image; runs to completion; attributes instructions to code owners
 * (application FRAM/SRAM, miss handler, memcpy) for Figure 8.
 *
 * Observability: an attached trace::TraceEngine receives instruction
 * retires, code-owner changes, and interrupt entries (the bus adds
 * accesses/stalls); an attached trace::FunctionProfiler receives the
 * exact stat deltas of every executed instruction, so per-function
 * cycle attribution sums to Stats::totalCycles(). Both default to
 * nullptr and cost one branch per step when absent.
 *
 * Copy episodes: the cache runtimes copy through one routine (the
 * Memcpy owner) with a fixed register contract, read from its code
 * when the Memcpy range is registered. With the swap category wanted,
 * entering the routine emits a CopyBegin event with its destination,
 * source and byte-count registers, and leaving it emits a CopyEnd
 * event with the advanced source register, from which the swap
 * timeline derives each copy's extent without watching its accesses.
 *
 * Tiers: run() picks one and builds only its decode cache. The
 * profiler, run metrics, and the per-step trace categories (instr,
 * access, stall, hwcache) pin a run to the single-step oracle and its
 * predecode cache. The swap timeline and the swap, power, and
 * interrupt categories do not: every owner runs threaded over the
 * block cache, with chains ending at owner changes and checkpoint
 * probes so each event lands on the same cycle, in the same order,
 * and with the same register values as on the oracle.
 */

#ifndef SWAPRAM_SIM_MACHINE_HH
#define SWAPRAM_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include <memory>

#include "masm/assembler.hh"
#include "sim/bus.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/fault.hh"
#include "sim/memory.hh"
#include "sim/mmio.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"
#include "sim/superblock.hh"
#include "sim/threaded.hh"

namespace swapram::trace {
class FunctionProfiler;
} // namespace swapram::trace

namespace swapram::sim {

/** Outcome of Machine::run(). */
struct RunResult {
    /** Why the run loop returned. */
    enum class Stop : std::uint8_t {
        Done,      ///< program wrote __DONE
        MaxCycles, ///< cycle budget exhausted
        Livelock,  ///< livelock watchdog tripped (config.livelock_boots)
        Exhausted, ///< harvest can never recharge the capacitor
    };

    bool done = false;          ///< program wrote __DONE
    std::uint8_t exit_code = 0; ///< low byte of the __DONE write
    Stop stop = Stop::Done;
};

/** A loaded, runnable system instance. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = {});

    /** Load an assembled image; sets PC to the entry point and SP to
     *  @p stack_top. */
    void load(const masm::Image &image, std::uint16_t stack_top);

    /**
     * Attribute instructions fetched from [base, end) to @p owner
     * (e.g. the SwapRAM miss handler's range). Later registrations win
     * on overlap. A Memcpy range must hold a loaded copy routine
     * (call after load()): the machine reads its register contract
     * from the code, starting at @p base.
     */
    void addOwnerRange(std::uint16_t base, std::uint32_t end,
                       CodeOwner owner);

    /** Attach the trace engine (this machine and its bus emit into
     *  it); nullptr detaches. */
    void setTraceEngine(trace::TraceEngine *engine);

    /** Attach a per-function profiler; nullptr detaches. */
    void setProfiler(trace::FunctionProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /**
     * Attach run metrics (heatmap + histograms, recorded by the bus);
     * nullptr detaches. Not owned. Like profiling and the per-step
     * trace categories, an attached collector forces single-step
     * execution — the threaded fast path accounts accesses in bulk and
     * would bypass per-access recording — while simulated results stay
     * identical.
     */
    void setMetrics(metrics::RunMetrics *metrics)
    {
        metrics_ = metrics;
        bus_.setMetrics(metrics);
    }

    /** Attach a power-failure injector checked before every step of
     *  run(); nullptr detaches. Not owned. The MMIO energy register
     *  reads the injector's capacitor level. */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_ = injector;
        mmio_.setEnergyProbe(injector);
    }

    /** Emit trace::CkptCommit / trace::CkptRestore whenever the PC
     *  lands on the named entry points (the generated checkpoint
     *  routines). 0 disables either probe. */
    void setCkptProbe(std::uint16_t commit_entry,
                      std::uint16_t restore_entry)
    {
        ckpt_commit_entry_ = commit_entry;
        ckpt_restore_entry_ = restore_entry;
        if (superblock_)
            superblock_->setProbeEntries(commit_entry, restore_entry);
    }

    /** Exclude FRAM [base, end) from the livelock boot watermark.
     *  Register ranges holding persistent counters that advance even
     *  when a boot makes no real progress (runtime statistics cells,
     *  checkpoint sequence numbers) — hashing them would make every
     *  boot look distinct and blind the watchdog. */
    void addWatermarkSkip(std::uint16_t base, std::uint32_t end);

    /** Attribute cycles spent with PC in [base, end) to
     *  Stats::recovery_cycles (the generated boot-recovery routine). */
    void setRecoveryRange(std::uint16_t base, std::uint32_t end)
    {
        recovery_base_ = base;
        recovery_end_ = end;
        // Blocks and chains must not span the attribution boundary.
        if (superblock_)
            superblock_->setRecoveryRange(base, end);
    }

    /**
     * Power loss + reboot: SRAM decays to zero, the CPU / MMIO devices
     * / hardware FRAM cache reset, FRAM is preserved byte-for-byte,
     * and the crt0 model re-runs — image chunks targeting SRAM and the
     * .data initialisers are re-copied and .bss is re-zeroed, while
     * .text and .const keep whatever FRAM held at the failure point.
     */
    void powerCycle();

    /** Run until the program signals completion or max_cycles pass. */
    RunResult run();

    /** Execute exactly one instruction (testing). */
    void step();

    const Stats &stats() const { return stats_; }
    const Mmio &mmio() const { return mmio_; }
    Cpu &cpu() { return cpu_; }
    Memory &memory() { return memory_; }
    Bus &bus() { return bus_; }
    const MachineConfig &config() const { return config_; }

    /** Convenience memory peek for result checking. */
    std::uint16_t peek16(std::uint16_t addr) const
    {
        return memory_.read16(addr);
    }
    std::uint8_t peek8(std::uint16_t addr) const
    {
        return memory_.read8(addr);
    }

  private:
    CodeOwner classifyPc(std::uint16_t pc) const;
    /** classifyPc(@p pc), and the first address above @p pc where the
     *  owner may change: an owner range's edge, or SRAM's. */
    SuperblockEngine::OwnerRun ownerRun(std::uint16_t pc) const;

    /** Boot-progress watermark for the livelock watchdog: the failure
     *  PC folded into an FNV-1a hash of the persistent (FRAM) state. */
    std::uint64_t bootWatermark() const;

    /** Register contract of the copy routine: one word per step,
     *  read at src and written at dst, with src advancing in the same
     *  instruction as the write; count holds the bytes left. */
    struct CopyRegs {
        std::uint16_t entry = 0; ///< first instruction (0 = none)
        isa::Reg src = isa::Reg::PC, dst = isa::Reg::PC,
                 count = isa::Reg::PC;
    };

    /** Read the contract of the copy routine at [base, end): the
     *  registers of its `MOV @src+, x(dst)` and `SUB #2, count`. */
    CopyRegs readCopyRoutine(std::uint16_t base, std::uint32_t end) const;

    /**
     * Events and bookkeeping due before the instruction at @p pc runs,
     * stamped @p now: the checkpoint probe, RecoveryEnter/Exit, and
     * OwnerChange (bracketed by CopyEnd and CopyBegin when it leaves or
     * enters the copy routine), in that order. @p regs is the register
     * file as it was before that instruction. Returns true when @p pc
     * is in the recovery range.
     */
    bool preStep(std::uint16_t pc, std::uint8_t owner, std::uint64_t now,
                 const std::array<std::uint16_t, 16> &regs);

    /** CopyEnd at @p pc with the source register in @p regs. */
    void copyEnd(std::uint64_t now, std::uint16_t pc,
                 const std::array<std::uint16_t, 16> &regs);

    /** Build the fast or the oracle tier's decode cache and drop the
     *  other's, so stores maintain only the cache the run reads. */
    void buildTier(bool fast);

    /** Run until a stop; run() adds the end-of-run events. */
    RunResult runLoop();

    /** step() for the profiler and instruction retires, and
     *  interrupt entry with observability hooks engaged. */
    void stepObserved(std::uint16_t pc, CodeOwner owner);
    void interruptObserved(std::uint16_t pc);

    /**
     * Attempt a threaded chain at the current PC. Returns true if at
     * least one instruction retired; false means the caller must
     * single-step (no block here, or a cycle boundary — fault,
     * timer, max_cycles — could land inside the block's worst-case
     * bound).
     */
    bool tryThreaded();

    MachineConfig config_;
    Memory memory_;
    Mmio mmio_;
    Stats stats_;
    Bus bus_;
    Cpu cpu_;

    /** The oracle tier's decoded-instruction cache (null unless an
     *  oracle run built it). The CPU (lookup/insert) and bus (write
     *  invalidation) are wired to the same instance. */
    std::unique_ptr<PredecodeCache> predecode_;

    /** The block cache and the threaded dispatcher over it (both null
     *  unless a fast run built them); the bus's write paths share the
     *  block cache's page-generation table. */
    std::unique_ptr<SuperblockEngine> superblock_;
    std::unique_ptr<ThreadedEngine> threaded_;

    std::uint64_t timer_next_fire_ = 0;
    bool timer_pending_ = false;

    trace::TraceEngine *trace_ = nullptr;
    trace::FunctionProfiler *profiler_ = nullptr;
    metrics::RunMetrics *metrics_ = nullptr;
    FaultInjector *fault_ = nullptr;
    /// No code owner has executed yet (start, or after a reboot).
    static constexpr std::uint8_t kNoOwner = 0xFF;
    /// Owner of the last traced step.
    std::uint8_t last_owner_ = kNoOwner;
    CopyRegs copy_; ///< contract of the Memcpy range's routine
    /// Register file at the entry of a traced chain that changes the
    /// owner (its pre-step events are emitted after the chain).
    std::array<std::uint16_t, 16> chain_regs_{};

    // Retained for powerCycle()'s crt0-style re-initialisation.
    masm::Image image_;
    std::uint16_t stack_top_ = 0;

    /// Watermarks of every boot so far; a boot landing on a member
    /// made no progress (8 bytes per reboot while the watchdog is on).
    std::unordered_set<std::uint64_t> seen_watermarks_;
    std::uint32_t livelock_streak_ = 0; ///< consecutive stale boots
    /// Sorted [base, end) FRAM spans excluded from the watermark.
    std::vector<std::pair<std::uint16_t, std::uint32_t>> wm_skip_;

    std::uint16_t recovery_base_ = 0;
    std::uint32_t recovery_end_ = 0; ///< 0 = no recovery range
    bool in_recovery_ = false;
    std::uint64_t recovery_enter_cycle_ = 0;

    std::uint16_t ckpt_commit_entry_ = 0;  ///< 0 = probe disabled
    std::uint16_t ckpt_restore_entry_ = 0; ///< 0 = probe disabled

    struct OwnerRange {
        std::uint16_t base;
        std::uint32_t end;
        CodeOwner owner;
    };
    std::vector<OwnerRange> owner_ranges_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_MACHINE_HH
