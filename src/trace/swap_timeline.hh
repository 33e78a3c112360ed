/**
 * @file
 * SwapTimeline: reconstructs cache-runtime behaviour (miss-handler
 * spans, function copy-ins, evictions, SRAM-cache residency and
 * occupancy over time) from the primitive trace stream.
 *
 * The SwapRAM runtime is generated assembly executing *inside* the
 * simulator, so there is no API to hook; instead the timeline watches
 * the existing CodeOwner classification (handler / memcpy ranges
 * registered by the builder) and the bus traffic while the copy loop
 * runs: FRAM reads identify the source function, SRAM writes into the
 * cache region identify the destination and size. Derived events are
 * re-emitted into the engine under Category::Swap so file sinks and
 * the ring record them alongside the primitive stream.
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

/** Streaming analyzer; subscribe with
 *  kCatSwap | kCatAccess | kCatPower. Its scope limits the access
 *  events to the Memcpy owner: only the copy loop's traffic names
 *  what was copied, so everywhere else the run stays on the fast
 *  tier. */
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
    Scope scope() const override;

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

    const Func *functionAt(std::uint16_t addr) const;
    bool inPool(std::uint16_t addr) const
    {
        return pool_base_ && addr >= pool_base_ && addr < cache_end_;
    }
    /** End of the code-cache region (the pool is carved off the top). */
    std::uint16_t codeEnd() const
    {
        return pool_base_ ? pool_base_ : cache_end_;
    }
    void ownerChange(const Event &event);
    void resetCopy();
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

    // Current copy episode.
    std::size_t copy_src_func_ = SIZE_MAX;
    std::uint16_t copy_dst_min_ = 0xFFFF;
    std::uint32_t copy_dst_max_ = 0;
    // Data-pool classification (pool_base_ != 0 only): the episode's
    // first non-pool read (the FRAM home on a swap-in), pool writes
    // (swap-in destination), pool reads (write-back source), and
    // non-cache writes (write-back destination).
    std::uint16_t copy_src_addr_ = 0;
    bool copy_read_pool_ = false;
    std::uint16_t pool_src_ = 0; ///< first pool read (write-back src)
    std::uint16_t pool_dst_min_ = 0xFFFF;
    std::uint32_t pool_dst_max_ = 0;
    std::uint16_t home_dst_min_ = 0xFFFF;
    std::uint32_t home_dst_max_ = 0;

    std::vector<Resident> resident_;
    std::vector<SwapEvent> events_;
    std::vector<OccupancySample> occupancy_;
    SwapSummary summary_;
};

} // namespace swapram::trace

#endif // SWAPRAM_TRACE_SWAP_TIMELINE_HH
