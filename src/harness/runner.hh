/**
 * @file
 * Experiment runner: assemble a workload under a system (baseline /
 * SwapRAM / block cache) and placement, execute it, and collect every
 * metric the paper's tables and figures report.
 *
 * The runner also owns the observability pipeline (ISSUE 1): when a
 * RunSpec requests it, a trace::TraceEngine is wired into the machine
 * (with an optional streaming sink), a per-function profiler
 * attributes cycles/stalls/energy to the image's functions, and a
 * SwapTimeline reconstructs the cache runtime's misses, copy-ins, and
 * evictions. Results land in Metrics; report.hh turns them into a
 * machine-readable RunReport.
 */

#ifndef SWAPRAM_HARNESS_RUNNER_HH
#define SWAPRAM_HARNESS_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "blockcache/options.hh"
#include "masm/assembler.hh"
#include "metrics/run_metrics.hh"
#include "harness/placement.hh"
#include "sim/config.hh"
#include "sim/energy.hh"
#include "sim/fault.hh"
#include "sim/machine.hh"
#include "sim/stats.hh"
#include "swapram/options.hh"
#include "trace/profile.hh"
#include "trace/swap_timeline.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace swapram::harness {

/** Execution system under test. */
enum class System { Baseline, SwapRam, BlockCache };

/** Printable name ("baseline", "swapram", "block"). */
std::string systemName(System system);

/** What to observe during a run (all off by default — and when off,
 *  the simulator's hot path pays a single branch per instruction). */
struct ObserveSpec {
    /** trace::Category bitmask recorded by the engine's ring buffer
     *  and written to the stream sink; 0 = event tracing off. */
    std::uint32_t categories = trace::kCatNone;

    /** Ring-buffer capacity in events (bounds trace memory). */
    std::size_t ring_capacity = trace::TraceEngine::kDefaultCapacity;

    /** Streaming sink format for `out`. */
    enum class Format { None, Text, Csv, Chrome };
    Format format = Format::None;

    /** Stream target for traced events (not owned; may be null). */
    std::ostream *out = nullptr;

    /** Stop streaming after this many events (0 = unlimited). */
    std::uint64_t limit = 0;

    /** Annotate instruction retires with disassembly (Text format). */
    bool disasm = false;

    /** Per-function cycle/stall/access/energy attribution. */
    bool profile = false;

    /** Reconstruct SwapRAM cache events and the residency timeline
     *  (auto-enabled for non-baseline systems when profiling or when
     *  `categories` includes trace::kCatSwap). */
    bool swap_timeline = false;

    /** Collect run metrics: the address-space heatmap, the FRAM
     *  stall-latency histogram, and (for cache systems) the
     *  miss-handler-duration histogram. Results land in
     *  Metrics::run_metrics. Host-side only; forces single-step
     *  execution like the profiler and the per-step trace categories
     *  (the swap timeline does not). */
    bool metrics = false;

    bool tracing() const { return categories != trace::kCatNone; }
    bool
    any() const
    {
        return tracing() || profile || swap_timeline || metrics;
    }
};

/** Intermittent execution: inject power failures during the run. */
struct IntermittentSpec {
    /** When power dies (Kind::None = uninterrupted run). */
    sim::FaultPlan plan;

    /** Livelock watchdog: abort after this many consecutive boots
     *  with an identical persistent-state watermark (0 = machine
     *  default). */
    std::uint32_t livelock_boots = 0;

    bool enabled() const { return plan.enabled(); }
};

/** One experiment configuration. */
struct RunSpec {
    const workloads::Workload *workload = nullptr;
    System system = System::Baseline;
    Placement placement = Placement::Unified;
    std::uint32_t clock_hz = 24'000'000;
    cache::Options swap;  ///< cache_base/end adjusted for Split
    bb::Options block;    ///< block-cache parameters
    bool include_lib = true;
    std::uint64_t max_cycles = 600'000'000ull;

    /**
     * Simulated SRAM capacity in bytes (ISSUE 7 capacity sweeps; the
     * region is [kSramBase, kSramBase + sram_size)). When this differs
     * from the platform default and the cache options still carry
     * their defaults, the runner re-anchors cache_end to the new SRAM
     * end, so sweeping the capacity is a one-field change.
     */
    std::uint32_t sram_size = platform::kSramSize;

    /** Host-side predecode fast path (see sim::MachineConfig). Off is
     *  the always-decode oracle for differential tests; simulated
     *  results must be identical either way. */
    bool predecode = true;

    /** Host-side threaded fast path (see sim::MachineConfig): it runs
     *  only with both flags on; either off is the single-step oracle
     *  for differential tests. Simulated results must be identical
     *  either way. perfbench reads both flags. */
    bool superblock = true;
    bool threaded = true; ///< see above; perfbench reads it

    /**
     * How many times the startup stub calls main() (the paper runs
     * each benchmark 10 times so steady-state behaviour — after
     * SwapRAM populates the cache — dominates the measurement, §4).
     */
    int main_repeats = 1;

    /** Observability: tracing, profiling, cache timeline. */
    ObserveSpec observe;

    /** Power-failure injection (off by default). */
    IntermittentSpec intermittent;
};

/** Everything measured from one run (or a DNF marker). */
struct Metrics {
    bool fits = true;          ///< false = paper's "DNF"
    std::string fit_note;      ///< why it did not fit
    bool done = false;         ///< program ran to completion
    /** Why the run loop returned (Done / MaxCycles / Livelock /
     *  Exhausted) — distinguishes a livelocked intermittent run from a
     *  merely slow one. */
    sim::RunResult::Stop stop = sim::RunResult::Stop::Done;
    std::uint16_t checksum = 0;
    sim::Stats stats;
    double energy_pj = 0;
    double seconds = 0;

    // Harvest-trace accounting (Trace fault plans only; 0 otherwise).
    double harvested_pj = 0;  ///< energy drawn from the trace
    double wall_seconds = 0;  ///< on-time + recharge (off) time

    // Static sizes (Figure 7 / Table 1).
    std::uint32_t text_bytes = 0;
    std::uint32_t const_bytes = 0;
    std::uint32_t data_bytes = 0;
    std::uint32_t bss_bytes = 0;
    std::uint32_t app_text_bytes = 0; ///< transformed application code
    std::uint32_t runtime_bytes = 0;  ///< cache runtime code
    std::uint32_t metadata_bytes = 0; ///< cache metadata (FRAM)
    std::uint32_t handler_bytes = 0;  ///< SwapRAM miss handler (§5.2)
    int n_funcs = 0;
    int reloc_count = 0;

    /** RAM usage in the Table-1 sense: data + bss + stack. */
    std::uint32_t ram_bytes = 0;

    /** Final .data+.bss contents for cross-system §5.1 validation. */
    std::vector<std::uint8_t> data_snapshot;

    /** Everything the program wrote to the console UART (§5.1 compares
     *  printed benchmark output across systems). */
    std::string console;

    // Observability results (filled per RunSpec::observe).
    std::vector<trace::ProfileRow> profile; ///< most expensive first
    std::vector<trace::FoldedStack> folded; ///< flamegraph stacks
    /** Run metrics (observe.metrics); shared so Metrics stays
     *  copyable. Null when collection was off. */
    std::shared_ptr<metrics::RunMetrics> run_metrics;
    std::vector<trace::SwapEvent> swap_events;
    std::vector<trace::OccupancySample> occupancy;
    trace::SwapSummary swap_summary;
    std::uint64_t trace_emitted = 0; ///< events accepted by the engine
    std::uint64_t trace_dropped = 0; ///< ring-buffer overwrites

    // SwapRAM runtime counter cells, read back from the image after the
    // run (zero when the cell does not exist — eviction off, no pool,
    // or a non-SwapRAM system). Unlike the timeline reconstruction
    // these come from the runtime's own bookkeeping, so the two can be
    // cross-checked.
    std::uint16_t rt_evictions = 0; ///< __swp_nevict: un-redirections
    std::uint16_t rt_retries = 0;   ///< __swp_nretry: blocked-scan retries
    std::uint16_t rt_data_in = 0;   ///< __swp_dnin: pool swap-ins
    std::uint16_t rt_data_out = 0;  ///< __swp_dnout: pool write-backs
    std::uint16_t rt_data_full = 0; ///< __swp_dnfull: served from FRAM

    // Checkpoint runtime counters (__ckpt_ncommit/__ckpt_nrestore;
    // same cells in both cache runtimes, zero when ckpt is off).
    std::uint16_t rt_ckpt_commits = 0;  ///< checkpoints sealed
    std::uint16_t rt_ckpt_restores = 0; ///< boots resumed from one

    std::uint32_t
    totalNvmBytes() const
    {
        return app_text_bytes + runtime_bytes + metadata_bytes +
               const_bytes;
    }
};

/** Startup stub: sets SP, calls the boot-recovery routine
 *  @p recover (if non-empty), calls main @p repeats times, signals
 *  completion. */
std::string startupSource(std::uint16_t stack_top, int repeats = 1,
                          const std::string &recover = "");

/**
 * The program runOne assembles for @p workload behind the startup
 * stub @p stub. Only the stub is parsed here. The workload's source
 * comes from its parse memo, the library (with @p include_lib) from a
 * parse made once per process; both are copied in behind the stub,
 * their lines moved down by the '\n's before them, so the result
 * equals masm::parse(stub + source + lib) statement for statement. A
 * parse error in the source names the workload and its own line. The
 * statement vector has room for @p headroom more statements, so a
 * build that adds no more than that to the moved program does not
 * regrow it.
 */
masm::Program spliceSource(const std::string &stub,
                           const workloads::Workload &workload,
                           bool include_lib, std::size_t headroom = 0);

/** Run one experiment. */
Metrics runOne(const RunSpec &spec);

/**
 * The program runOne(@p spec) loads, as assembled, without running it:
 * the same placement, splice and build. Empty (no chunks) when the
 * placement leaves no room to build. Errors name the piece of the
 * source and its line, as runOne's do.
 */
masm::AssembleResult buildOne(const RunSpec &spec);

/** One intermittent run checked against its uninterrupted twin. */
struct IntermittentCheck {
    Metrics reference; ///< same spec, no faults
    Metrics faulted;   ///< spec.intermittent applied

    /** Both completed with identical final state and console. */
    bool
    match() const
    {
        return matchState() && reference.console == faulted.console;
    }

    /** Both completed with identical final persistent state. Console
     *  output is exempt: a checkpoint-resumed run re-executes the span
     *  since the last commit, so console writes in that span are
     *  legitimately duplicated (UART output is not idempotent). */
    bool
    matchState() const
    {
        return reference.fits && faulted.fits && reference.done &&
               faulted.done &&
               reference.checksum == faulted.checksum &&
               reference.data_snapshot == faulted.data_snapshot;
    }
};

/** Run @p spec twice — once uninterrupted, once with its fault plan —
 *  and pair the results (the ISSUE-2 convergence criterion). */
IntermittentCheck checkIntermittent(const RunSpec &spec);

/** Shorthand: run @p workload under @p system in a placement/clock. */
Metrics run(const workloads::Workload &workload, System system,
            Placement placement = Placement::Unified,
            std::uint32_t clock_hz = 24'000'000);

} // namespace swapram::harness

#endif // SWAPRAM_HARNESS_RUNNER_HH
