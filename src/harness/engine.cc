#include "harness/engine.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "support/logging.hh"
#include "workloads/workload.hh"

namespace swapram::harness {

namespace {

/**
 * Touch every lazily-initialized static the run path can reach, so
 * workers never construct one. All of them are C++11 magic statics
 * (construction is race-safe regardless); this is about keeping the
 * cost out of the measured runs and making the shared state easy to
 * audit in one place.
 */
void
warmSharedState()
{
    workloads::all();           // workload registry (sources + goldens)
    workloads::libSource();     // shared helper library source
    support::logLevel();        // resolves SWAPRAM_LOG once (atomic)
}

/** Execute one spec, capturing any failure into the outcome. */
RunOutcome
runCaptured(const RunSpec &spec)
{
    RunOutcome out;
    try {
        out.metrics = runOne(spec);
    } catch (const std::exception &e) {
        out.error = true;
        out.error_text = e.what();
    }
    return out;
}

/** Serializes progress callbacks and maintains the rolling counters.
 *  Timing feeds only runs_per_sec; results never depend on it. */
class ProgressReporter
{
  public:
    ProgressReporter(const ProgressFn &fn, std::size_t total)
        : fn_(fn), total_(total),
          start_(std::chrono::steady_clock::now())
    {
    }

    void
    report(std::size_t index, const RunOutcome &outcome)
    {
        if (!fn_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        Progress p;
        p.done = ++done_;
        p.total = total_;
        if (outcome.error)
            ++errors_;
        p.errors = errors_;
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        p.runs_per_sec =
            secs > 0 ? static_cast<double>(p.done) / secs : 0;
        p.index = index;
        p.outcome = &outcome;
        fn_(p);
    }

  private:
    const ProgressFn &fn_;
    std::size_t total_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
    std::size_t done_ = 0;
    std::size_t errors_ = 0;
};

} // namespace

unsigned
Engine::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

Engine::Engine(unsigned jobs) : jobs_(jobs ? jobs : defaultJobs()) {}

void
Engine::forEach(std::size_t n,
                const std::function<void(std::size_t)> &fn) const
{
    unsigned workers = jobs_;
    if (workers > n)
        workers = static_cast<unsigned>(n);

    // Single-job batches run inline: no threads, trivially ordered,
    // and debuggable — the deterministic reference the parallel path
    // is tested against.
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    warmSharedState();

    // Work-stealing by atomic ticket: completion order is arbitrary,
    // but each index goes to exactly one call.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

std::vector<RunOutcome>
Engine::runAll(const std::vector<RunSpec> &specs,
               const ProgressFn &progress) const
{
    // Each call writes only results[i] for its own index, so the
    // outcome vector is in submission order by construction.
    std::vector<RunOutcome> results(specs.size());
    ProgressReporter reporter(progress, specs.size());
    forEach(specs.size(), [&](std::size_t i) {
        results[i] = runCaptured(specs[i]);
        reporter.report(i, results[i]);
    });
    return results;
}

RunSpec
sweepSpec(const workloads::Workload &workload, System system,
          Placement placement, std::uint32_t clock_hz)
{
    RunSpec spec;
    spec.workload = &workload;
    spec.system = system;
    spec.placement = placement;
    spec.clock_hz = clock_hz;
    spec.observe.swap_timeline = system != System::Baseline;
    return spec;
}

RunSpec
capacitySpec(const workloads::Workload &workload, System system,
             std::uint32_t sram_size, std::uint32_t clock_hz)
{
    RunSpec spec =
        sweepSpec(workload, system, Placement::Unified, clock_hz);
    spec.sram_size = sram_size;
    return spec;
}

std::vector<MatrixCell>
capacityMatrix()
{
    std::vector<MatrixCell> cells;
    for (const workloads::Workload &w : workloads::capacity()) {
        // One baseline reference at the platform default, then the
        // SwapRAM hit/thrash curve across the capacity ladder.
        cells.push_back({&w, System::Baseline, platform::kSramSize});
        for (std::uint32_t size : kCapacitySizes)
            cells.push_back({&w, System::SwapRam, size});
    }
    return cells;
}

std::vector<Metrics>
Engine::runAllOrThrow(const std::vector<RunSpec> &specs) const
{
    std::vector<RunOutcome> outcomes = runAll(specs);
    std::vector<Metrics> metrics;
    metrics.reserve(outcomes.size());
    for (RunOutcome &o : outcomes) {
        if (o.error)
            support::fatal("engine run failed: ", o.error_text);
        metrics.push_back(std::move(o.metrics));
    }
    return metrics;
}

} // namespace swapram::harness
