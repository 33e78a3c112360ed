/**
 * @file
 * SwapTimeline: reconstructs cache-runtime behaviour (miss-handler
 * spans, function copy-ins, evictions, SRAM-cache residency and
 * occupancy over time) from the primitive trace stream.
 *
 * The SwapRAM runtime is generated assembly executing *inside* the
 * simulator, so there is no API to hook; instead the timeline watches
 * the existing CodeOwner classification (handler / memcpy ranges
 * registered by the builder) and the copy routine's registers, which
 * the machine reports as each copy episode begins and ends
 * (CopyBegin/CopyEnd). The routine copies a word per step, so its
 * source, destination and the distance its source register advanced
 * give the episode's read and write extents: the first read inside a
 * known function names the function, and where the writes land (the
 * code cache, the data pool, or elsewhere) says what kind of copy it
 * was. Derived events are re-emitted into the engine under
 * Category::Swap so file sinks and the ring record them alongside the
 * primitive stream. Nothing the timeline reads is a per-step event,
 * so a run it watches stays on the fast tier.
 */

#ifndef SWAPRAM_TRACE_SWAP_TIMELINE_HH
#define SWAPRAM_TRACE_SWAP_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace swapram::trace {

class FunctionProfiler;

/** One reconstructed cache-runtime event (report form). */
struct SwapEvent {
    EventKind kind = EventKind::MissEnter;
    std::uint64_t cycle = 0;
    std::string func;              ///< copy-in/evict: function name
    std::uint16_t cache_addr = 0;  ///< SRAM address (copy-in/evict)
    std::uint16_t nvm_addr = 0;    ///< FRAM home (copy-in/evict)
    std::uint32_t bytes = 0;       ///< body bytes (copy-in/evict)
    std::uint64_t handler_cycles = 0; ///< miss-exit: span length

    bool operator==(const SwapEvent &) const = default;
};

/** Cache occupancy after each copy-in/evict. */
struct OccupancySample {
    std::uint64_t cycle = 0;
    std::uint32_t resident_bytes = 0;
    int resident_functions = 0;

    bool operator==(const OccupancySample &) const = default;
};

/** Roll-up counters for the report. */
struct SwapSummary {
    std::uint64_t misses = 0;       ///< miss-handler entries
    std::uint64_t copy_ins = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t data_swap_ins = 0;     ///< pool swap-ins (__swp_din)
    std::uint64_t data_swap_outs = 0;    ///< pool write-backs
    std::uint64_t data_bytes_copied = 0; ///< bytes through the pool
    std::uint64_t handler_cycles = 0; ///< cycles inside handler+memcpy
    std::uint32_t peak_resident_bytes = 0;
    std::uint64_t power_failures = 0;  ///< injected power losses seen
    std::uint64_t recovery_cycles = 0; ///< cycles in boot recovery
    std::uint64_t ckpt_commits = 0;    ///< __ckpt_commit entries seen
    std::uint64_t ckpt_restores = 0;   ///< __ckpt_restore entries seen

    bool operator==(const SwapSummary &) const = default;
};

/** Streaming analyzer of the swap and power categories (any wider
 *  subscription is narrowed to those). */
class SwapTimeline : public Sink
{
  public:
    /** @p cache_base/@p cache_end bound the SRAM code-cache region. */
    SwapTimeline(std::uint16_t cache_base, std::uint16_t cache_end);

    /** Register a function's NVM range for copy-in identification. */
    void addFunction(const std::string &name, std::uint16_t addr,
                     std::uint16_t size);

    /** Mark [pool_base, cache_end) as the data-side pool: memcpy
     *  episodes writing there are data swap-ins, episodes reading from
     *  there are write-backs, and neither enters the code-residency
     *  tracking. [routine_base, routine_end) is the __swp_din/__swp_dout
     *  text range; runtime spans entered there are data-swap calls, not
     *  misses. */
    void setDataPool(std::uint16_t pool_base, std::uint16_t routine_base,
                     std::uint16_t routine_end)
    {
        pool_base_ = pool_base;
        routine_base_ = routine_base;
        routine_end_ = routine_end;
    }

    /** Re-emit derived events into @p engine (register this sink
     *  last so other sinks see trigger-then-derived order). */
    void setEngine(TraceEngine *engine) { engine_ = engine; }

    /** Keep @p profiler's residency overlay in sync with copy-ins. */
    void setProfiler(FunctionProfiler *profiler)
    {
        profiler_ = profiler;
    }

    void event(const Event &event) override;
    void finish() override;
    std::uint32_t categories() const override
    {
        return kCatSwap | kCatPower;
    }

    const std::vector<SwapEvent> &events() const { return events_; }
    const std::vector<OccupancySample> &occupancy() const
    {
        return occupancy_;
    }
    const SwapSummary &summary() const { return summary_; }

  private:
    struct Func {
        std::string name;
        std::uint16_t addr;
        std::uint16_t size;
    };
    struct Resident {
        std::uint16_t base;
        std::uint32_t end;
        std::size_t func; ///< index into funcs_ (SIZE_MAX = unknown)
    };
    /** Byte span [lo, hi); empty while hi <= lo. */
    struct Span {
        std::uint32_t lo = 0xFFFF, hi = 0;
        std::uint32_t size() const { return hi > lo ? hi - lo : 0; }
    };
    /** What one copy episode read and wrote. */
    struct Extents {
        std::size_t src_func = SIZE_MAX; ///< first function read
        std::uint16_t src_addr = 0; ///< first read outside the pool
        bool read_pool = false;     ///< some read was in the pool
        std::uint16_t pool_src = 0; ///< first read in the pool
        Span pool_dst;              ///< writes into the pool
        Span code_dst;              ///< writes into the code cache
        /** Writes outside both, from the first pool read on: a
         *  write-back to the FRAM home. */
        Span home_dst;
    };

    const Func *functionAt(std::uint16_t addr) const;
    /** End of the code-cache region (the pool is carved off the top). */
    std::uint16_t codeEnd() const
    {
        return pool_base_ ? pool_base_ : cache_end_;
    }
    void ownerChange(const Event &event);
    Extents classifyCopy() const;
    void finishCopy(std::uint64_t cycle);
    void derive(Event event);
    void sample(std::uint64_t cycle);

    std::uint16_t cache_base_, cache_end_;
    std::uint16_t pool_base_ = 0; ///< 0 = no data pool
    std::uint16_t routine_base_ = 0, routine_end_ = 0;
    std::vector<Func> funcs_;
    TraceEngine *engine_ = nullptr;
    FunctionProfiler *profiler_ = nullptr;

    // Owner-state machine.
    bool in_miss_ = false;
    bool in_data_ = false; ///< runtime span entered via din/dout
    bool in_copy_ = false;
    std::uint64_t miss_begin_ = 0;
    std::uint16_t miss_site_ = 0;
    std::uint32_t copies_this_miss_ = 0;

    // Current copy episode: the source register on entry and on exit,
    // and the address of the episode's first write.
    std::uint16_t copy_src_ = 0, copy_src_end_ = 0, copy_dst_ = 0;
    // The call the episode belongs to: its source and destination
    // registers at the routine's entry. An interrupt splits a call
    // into episodes; a resumed one continues from these, because its
    // destination register lags by a word if the interrupt landed
    // between a write and the increment after it.
    std::uint16_t call_src_ = 0, call_dst_ = 0;

    std::vector<Resident> resident_;
    std::vector<SwapEvent> events_;
    std::vector<OccupancySample> occupancy_;
    SwapSummary summary_;
};

} // namespace swapram::trace

#endif // SWAPRAM_TRACE_SWAP_TIMELINE_HH
