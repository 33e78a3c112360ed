/**
 * @file
 * Experiment engine: execute a batch of independent RunSpecs across a
 * pool of worker threads and return results in deterministic submission
 * order, regardless of completion order.
 *
 * Isolation contract (audited; see docs/INTERNALS.md §7):
 *  - Every run constructs its own Machine, TraceEngine, profiler, and
 *    timeline inside harness::runOne(); no simulation state is shared
 *    between concurrent runs.
 *  - The only process-global state the run path touches is read-only
 *    after first use (workloads::all(), the opcode mnemonic table) or
 *    atomic (the support::logging level). Lazily-initialized statics
 *    are C++11 magic statics, so first-use races are safe; the engine
 *    still warms them before spawning workers so no worker pays the
 *    construction.
 *  - Callers must not share an ObserveSpec output stream between two
 *    specs of one batch: sinks write unsynchronized. Batch APIs are
 *    for plain (non-streaming) runs; stream one run at a time.
 *
 * Determinism: each run is a pure function of its RunSpec (the
 * simulator has no wall-clock or host-randomness inputs), results are
 * stored by submission index, and errors are captured per-run — so a
 * batch's outcome vector is byte-identical at any worker count.
 */

#ifndef SWAPRAM_HARNESS_ENGINE_HH
#define SWAPRAM_HARNESS_ENGINE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace swapram::harness {

/** Result of one engine-submitted run: metrics or a captured error. */
struct RunOutcome {
    Metrics metrics;
    bool error = false;     ///< the run threw (fatal/panic)
    std::string error_text; ///< exception message when error is set

    bool ok() const { return !error; }
};

/** Live batch progress, reported once per completed run (ISSUE 6). */
struct Progress {
    std::size_t done = 0;   ///< runs completed so far (including this)
    std::size_t total = 0;  ///< batch size
    std::size_t errors = 0; ///< error outcomes so far
    double runs_per_sec = 0; ///< rolling rate since the batch started
    std::size_t index = 0;   ///< submission index of the finished run
    /** The finished run's outcome (valid only during the callback). */
    const RunOutcome *outcome = nullptr;
};

/**
 * Progress callback: invoked after each run completes, serialized
 * under an engine-internal mutex (never concurrently), from worker
 * threads. Completion order — and therefore callback order — is
 * nondeterministic with jobs > 1; only the counters are monotonic.
 * The callback must not throw and should be cheap. Wall-clock timing
 * feeds only `runs_per_sec`; results stay byte-identical.
 */
using ProgressFn = std::function<void(const Progress &)>;

/** Thread-pool executor for batches of independent experiments. */
class Engine
{
  public:
    /** @p jobs worker threads; 0 selects defaultJobs(). */
    explicit Engine(unsigned jobs = 0);

    /** Worker threads this engine uses per batch. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every spec (each workload pointer must stay valid for the
     * call); outcome i corresponds to specs[i]. A run that throws
     * support::FatalError/PanicError yields an error outcome instead
     * of aborting the batch. @p progress, when set, is invoked after
     * each completed run (see ProgressFn).
     */
    std::vector<RunOutcome>
    runAll(const std::vector<RunSpec> &specs,
           const ProgressFn &progress = {}) const;

    /**
     * Call @p fn(i) once for every i in [0, @p n) on the engine's
     * workers (inline, in order, with one job). Calls run
     * concurrently, so @p fn must be safe to call from several
     * threads at once, and must not throw.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn) const;

    /** runAll(), but rethrow the first captured error (by submission
     *  order, so failures are deterministic too). */
    std::vector<Metrics> runAllOrThrow(const std::vector<RunSpec> &specs) const;

    /** Hardware concurrency, clamped to at least 1. */
    static unsigned defaultJobs();

  private:
    unsigned jobs_;
};

/**
 * Canonical spec for one (workload × system) cell of the sweep matrix —
 * shared by `swapram_tool sweep`, the golden conformance suite, and the
 * determinism tests, so all three pin exactly the same configuration.
 * The swap timeline is observed for caching systems so swap-in counts
 * land in the metrics.
 */
RunSpec sweepSpec(const workloads::Workload &workload, System system,
                  Placement placement = Placement::Unified,
                  std::uint32_t clock_hz = 24'000'000);

/** SRAM capacities swept for the ISSUE-7 hit/thrash curve. */
inline constexpr std::uint32_t kCapacitySizes[] = {1024, 2048, 4096,
                                                   8192};

/** sweepSpec() with the simulated SRAM capacity overridden; the runner
 *  re-anchors default cache bounds to the new SRAM end. */
RunSpec capacitySpec(const workloads::Workload &workload, System system,
                     std::uint32_t sram_size,
                     std::uint32_t clock_hz = 24'000'000);

/** One cell of a (workload × system × SRAM size) matrix. */
struct MatrixCell {
    const workloads::Workload *workload = nullptr;
    System system = System::Baseline;
    std::uint32_t sram_size = 0;
};

/**
 * The canonical capacity-pressure matrix (ISSUE 7): every
 * workloads::capacity() entry as a baseline reference at the platform
 * default plus a SwapRAM run per kCapacitySizes step — shared by
 * `swapram_tool sweep --capacity` and the golden conformance suite.
 */
std::vector<MatrixCell> capacityMatrix();

} // namespace swapram::harness

#endif // SWAPRAM_HARNESS_ENGINE_HH
