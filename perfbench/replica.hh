/**
 * @file
 * The traced run's pipeline: the benchmark's own code calls the
 * library's public layer functions in the order harness::runOne() uses
 * them (parse, system build or assemble, Machine setup, observer
 * wiring, run, result collection) and records one span per call.
 *
 * Only what the benchmark's cells use is replicated: Unified
 * placement, no power-failure injection, no checkpointing, no event
 * stream. Anything else is refused, so the replica can never silently
 * measure a different program; the caller also checks that its Stats
 * and checksum equal runOne()'s for every cell.
 */

#ifndef PERFBENCH_REPLICA_HH
#define PERFBENCH_REPLICA_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "blockcache/options.hh"
#include "harness/runner.hh"
#include "masm/assembler.hh"
#include "sim/stats.hh"
#include "swapram/options.hh"
#include "trace/swap_timeline.hh"

namespace perfbench {

/** In-memory span recorder; write the spans out after the run. */
class Tracer
{
  public:
    struct Span {
        std::uint64_t trace = 0;  ///< shared by every span of one cell run
        std::uint64_t id = 0;     ///< 1-based; 0 means "no parent"
        std::uint64_t parent = 0;
        const char *name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::size_t index)
            : tracer_(tracer), index_(index)
        {
        }
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::size_t index_;
    };

    /** A disabled tracer records nothing and reads no clock. */
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Start a new trace id (one per cell run). */
    void newTrace() { ++trace_; }

    /** Open a span, child of the innermost open one. */
    Scope span(const char *name);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::uint64_t trace_ = 0;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Steady-clock nanoseconds since an arbitrary epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU nanoseconds the calling thread has run. Unlike the steady clock
 * it leaves out time the thread waited while the host ran something
 * else: other threads of the guest, and (paravirtual steal-time
 * accounting) other guests of a shared host.
 */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** What runOne() builds before it constructs the Machine. */
struct Built {
    swapram::masm::AssembleResult assembled;
    std::uint16_t stack_top = 0;
    swapram::cache::Options swap;
    swapram::bb::Options block;
    std::uint16_t handler_base = 0, handler_end = 0;
    std::uint16_t memcpy_base = 0, memcpy_end = 0;
    std::uint16_t recover_base = 0, recover_end = 0;
    std::uint16_t datapool_base = 0, datapool_end = 0;

    // Work counts of the build layers.
    std::uint64_t statements = 0; ///< parsed masm statements
    std::uint64_t funcs = 0;      ///< SwapRAM-managed functions
    std::uint64_t relocs = 0;     ///< SwapRAM relocation cells
    std::uint64_t blocks = 0;     ///< block-cache basic blocks
};

/** Parse and build @p spec's image (spans masm.parse, masm.assemble,
 *  swapram.build, blockcache.build). */
Built build(const swapram::harness::RunSpec &spec, Tracer &tracer);

/** Observers attached to one Machine::run(). */
struct Observers {
    bool timeline = false;
    bool profile = false;
    bool metrics = false;
};

/** The observers runOne() attaches for @p spec. */
Observers observersOf(const swapram::harness::RunSpec &spec);

/** Result of one simulated run. */
struct SimResult {
    swapram::sim::Stats stats;
    std::uint16_t checksum = 0;
    bool done = false;
    std::uint64_t trace_events = 0;       ///< events the engine accepted
    swapram::trace::SwapSummary summary;  ///< zero without a timeline
    std::int64_t run_ns = 0;              ///< Machine::run() alone
};

/** Set up a Machine for @p built, attach @p observers, run, and collect
 *  the observers' results (spans sim.setup, trace.attach,
 *  metrics.attach, sim.run, trace.collect, metrics.collect). */
SimResult simulate(const swapram::harness::RunSpec &spec, const Built &built,
                   const Observers &observers, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HH
