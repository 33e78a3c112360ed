/**
 * @file
 * perfbench: closed-loop experiment-run benchmark over the library's
 * public entry points. See README.md for the workloads and metrics.
 *
 *   perfbench --workload sweep|steady|thrash|observed --seed N
 *             --seconds S --trace 0|1 --golden FILE [--spans-out FILE]
 *
 * --trace 0 times whole runs submitted through harness::Engine (one
 * worker: the next run starts when the last one finishes). --trace 1
 * is the separate traced run: per cell it times runOne(), then replays
 * the run through the layer functions with a span around each call.
 * Both modes check every run and print one JSON object on stdout.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cells.hh"
#include "harness/engine.hh"
#include "replica.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace {

namespace sw = swapram;
namespace json = swapram::support::json;
using perfbench::Cell;
using perfbench::Digest;
using perfbench::Inputs;
using perfbench::Tracer;

/** run_ms_p90 needs ten samples beyond it: ten rounds of ten or more
 *  cells give at least ten runs above the 90th percentile. */
constexpr std::size_t kMinRounds = 10;

/** Steps of the host-speed reference loop (see referenceMs()), and its
 *  CPU time in ms on a quiet host of the reference class: one vCPU of
 *  a 4-vCPU x86-64 Xeon VM. */
constexpr int kReferenceSteps = 300000;
constexpr double kReferenceMs = 4.0;

/** How much more than the reference loop the workloads slow on a busy
 *  host: across runs on that VM, the log of a run's median round time
 *  followed the log of the loop's median time with slope 1.2 to 1.7
 *  (correlation 0.97 to 0.99), on sweep and on steady, depending on the
 *  hour. */
constexpr double kHostExponent = 1.5;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = 0;
    std::string golden;
    std::string spans_out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            sw::support::fatal("perfbench: ", flag, " needs a value");
        std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--trace") {
            a.trace = std::stoi(value);
        } else if (flag == "--golden") {
            a.golden = value;
        } else if (flag == "--spans-out") {
            a.spans_out = value;
        } else {
            sw::support::fatal("perfbench: unknown flag ", flag);
        }
    }
    if (a.workload.empty() || !have_seed || !(a.seconds > 0) ||
        (a.trace != 0 && a.trace != 1))
        sw::support::fatal("usage: perfbench --workload W --seed N "
                           "--seconds S --trace 0|1 --golden FILE "
                           "[--spans-out FILE]");
    return a;
}

/** Nearest-rank percentile of @p sorted (0 < p <= 1). */
double
percentile(const std::vector<double> &sorted, double p)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/** Median of @p v. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Checks every run: on its own (fits, finishes, golden row), against
 * the cell's first run (repeatable), and — once the timing is over —
 * the first run against the cell's single-step-oracle twin.
 */
class Verifier
{
  public:
    explicit Verifier(const std::vector<Cell> &cells)
        : cells_(cells), first_(cells.size()), runs_(cells.size()),
          bad_(cells.size())
    {
    }

    void
    record(std::size_t cell, const sw::harness::RunOutcome &o)
    {
        ++runs_[cell];
        std::string why;
        if (o.error) {
            why = "threw: " + o.error_text;
        } else {
            why = perfbench::checkRun(o.metrics, cells_[cell]);
            if (why.empty()) {
                Digest d = perfbench::digestOf(o.metrics);
                if (!first_[cell])
                    first_[cell] = std::move(d);
                else if (!(d == *first_[cell]))
                    why = "differs from the cell's first run";
            }
        }
        if (!why.empty())
            fail(cell, why);
    }

    void
    fail(std::size_t cell, const std::string &why)
    {
        ++bad_[cell];
        if (++notes_ <= 10)
            std::fprintf(stderr, "perfbench: %s: %s\n",
                         cells_[cell].name.c_str(), why.c_str());
    }

    /** Run each non-golden cell's oracle twin; a mismatch fails every
     *  run of that cell. Returns the number of failed runs. */
    std::uint64_t
    finish()
    {
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (cells_[i].has_golden || !first_[i])
                continue;
            std::string why;
            try {
                sw::harness::Metrics twin = sw::harness::runOne(
                    perfbench::oracleTwin(cells_[i].spec));
                if (!twin.fits || !twin.done ||
                    !perfbench::digestOf(twin).sameOutcome(*first_[i]))
                    why = "differs from its single-step-oracle twin";
            } catch (const std::exception &e) {
                why = std::string("oracle twin threw: ") + e.what();
            }
            if (!why.empty()) {
                fail(i, why);
                bad_[i] = runs_[i];
            }
        }
        return failed();
    }

    std::uint64_t
    attempted() const
    {
        return std::accumulate(runs_.begin(), runs_.end(), std::uint64_t{0});
    }

    std::uint64_t
    failed() const
    {
        return std::accumulate(bad_.begin(), bad_.end(), std::uint64_t{0});
    }

  private:
    const std::vector<Cell> &cells_;
    std::vector<std::optional<Digest>> first_;
    std::vector<std::uint64_t> runs_;
    std::vector<std::uint64_t> bad_;
    int notes_ = 0;
};

json::Value
metric(double value, const char *unit)
{
    return json::Object{{"value", value}, {"unit", unit}};
}

std::vector<std::size_t>
canonicalOrder(std::size_t n)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
}

/** One round through the Engine; per-run host CPU times in ms, by cell.
 *  A one-worker Engine runs every spec inline on this thread, so the
 *  thread's CPU clock, read at each completion, times each run. */
std::vector<double>
engineRound(const sw::harness::Engine &engine, const Inputs &in,
            const std::vector<std::size_t> &order, Verifier &verifier,
            std::vector<sw::harness::Metrics> *keep = nullptr)
{
    std::vector<sw::harness::RunSpec> specs;
    for (std::size_t i : order)
        specs.push_back(in.cells[i].spec);
    std::vector<std::int64_t> stamps;
    stamps.reserve(specs.size() + 1);
    stamps.push_back(perfbench::cpuNs());
    std::vector<sw::harness::RunOutcome> outcomes = engine.runAll(
        specs, [&stamps](const sw::harness::Progress &) {
            stamps.push_back(perfbench::cpuNs());
        });
    std::vector<double> ms(in.cells.size(), 0);
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
        ms[order[k]] = static_cast<double>(stamps[k + 1] - stamps[k]) / 1e6;
        verifier.record(order[k], outcomes[k]);
        if (keep)
            (*keep)[order[k]] = std::move(outcomes[k].metrics);
    }
    return ms;
}

template <int K>
std::uint64_t
referenceHandler(std::uint64_t v)
{
    return (v ^ (v >> (K % 13 + 1))) * (2 * K + 1) + K;
}

template <int... K>
constexpr auto
referenceHandlers(std::integer_sequence<int, K...>)
{
    return std::array<std::uint64_t (*)(std::uint64_t), sizeof...(K)>{
        referenceHandler<K>...};
}

volatile std::uint64_t reference_sink;

/**
 * The host-speed reference: a fixed dispatch loop through 256 small
 * handlers, the shape of an interpreter's inner loop, that nothing in
 * the library can change. Returns its CPU time in ms; a quiet host of
 * the reference class takes kReferenceMs.
 */
double
referenceMs()
{
    static constexpr auto kHandlers =
        referenceHandlers(std::make_integer_sequence<int, 256>{});
    std::uint64_t x = 88172645463325252ull, acc = 1;
    const std::int64_t t0 = perfbench::cpuNs();
    for (int i = 0; i < kReferenceSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = kHandlers[(x ^ acc) & 255](acc);
    }
    reference_sink = acc;
    return static_cast<double>(perfbench::cpuNs() - t0) / 1e6;
}

/** --trace 0: end-to-end metrics, tracing off. */
json::Object
endToEnd(const Args &args, const Inputs &in, Verifier &verifier,
         json::Object &exact)
{
    const std::size_t n = in.cells.size();
    sw::harness::Engine engine(1);

    // Warm-up round in canonical order: lazy state settles, and its
    // results give the per-cell simulated totals.
    std::vector<sw::harness::Metrics> warm(n);
    engineRound(engine, in, canonicalOrder(n), verifier, &warm);
    std::uint64_t round_cycles = 0, round_instr = 0;
    double round_energy_pj = 0;
    for (const sw::harness::Metrics &m : warm) {
        round_cycles += m.stats.totalCycles();
        round_instr += m.stats.instructions;
        round_energy_pj += m.energy_pj;
    }

    // Each round runs every cell once and then sets up every run's
    // inputs once more, timed in CPU time of this thread, and runs the
    // host-speed reference before and after. CPU time leaves out the
    // time the host ran other threads or guests (steal time), but not
    // the slowdown other guests cause while this thread runs: on a
    // shared host the same round takes up to 1.8x as long, for seconds
    // to minutes at a time, and the reference slows with it. Every time
    // of a round is scaled by kReferenceMs over the reference's mean
    // time around it, to the power kHostExponent, so the figures read
    // as on a quiet reference host.
    struct Round {
        std::vector<double> run_ms;
        double ms = 0;
        double setup_s = 0;
        double scale = 0;
    };
    std::mt19937_64 rng(args.seed);
    std::vector<Round> rounds;
    double wall_ms = 0, cpu_ms = 0;
    referenceMs(); // untimed: its first call runs cold
    const std::int64_t start = perfbench::nowNs();
    do {
        std::vector<std::size_t> order = canonicalOrder(n);
        std::shuffle(order.begin(), order.end(), rng);
        Round r;
        const double ref_before = referenceMs();
        const std::int64_t w0 = perfbench::nowNs();
        r.run_ms = engineRound(engine, in, order, verifier);
        wall_ms += static_cast<double>(perfbench::nowNs() - w0) / 1e6;
        const std::int64_t t0 = perfbench::cpuNs();
        perfbench::prepare(args.workload, args.golden);
        r.setup_s = static_cast<double>(perfbench::cpuNs() - t0) / 1e9;
        r.scale = std::pow(2 * kReferenceMs / (ref_before + referenceMs()),
                           kHostExponent);
        for (double &ms : r.run_ms) {
            cpu_ms += ms;
            ms *= r.scale;
        }
        r.ms = std::accumulate(r.run_ms.begin(), r.run_ms.end(), 0.0);
        r.setup_s *= r.scale;
        rounds.push_back(std::move(r));
    } while (static_cast<double>(perfbench::nowNs() - start) / 1e9 <
                 args.seconds ||
             rounds.size() < kMinRounds);

    std::uint64_t failed = verifier.finish();
    // Medians over every round: throughput from the median round time,
    // set-up from the median set-up, and the run-time percentiles over
    // the pooled runs of all rounds (a single run's time also depends on
    // which cells ran just before it, a round's much less).
    std::vector<double> round_ms, run_ms, setups, scales;
    for (const Round &r : rounds) {
        round_ms.push_back(r.ms);
        run_ms.insert(run_ms.end(), r.run_ms.begin(), r.run_ms.end());
        setups.push_back(r.setup_s);
        scales.push_back(r.scale);
    }
    std::sort(run_ms.begin(), run_ms.end());
    const double round_s = median(round_ms) / 1e3;
    const double ok_share =
        1.0 - ratio(static_cast<double>(failed),
                    static_cast<double>(verifier.attempted()));

    exact["sim_cycles"] = round_cycles;
    exact["sim_energy_uj"] = round_energy_pj / 1e6;
    exact["ok_share"] = ok_share;
    exact["cells"] = static_cast<std::uint64_t>(n);
    exact["sim_instructions_per_round"] = round_instr;

    std::sort(scales.begin(), scales.end());
    std::fprintf(stderr,
                 "perfbench: %s: %zu rounds of %zu runs; host-speed scale "
                 "%.3f to %.3f (median %.3f); wall time / CPU time %.4f\n",
                 args.workload.c_str(), rounds.size(), n, scales.front(),
                 scales.back(), median(scales), wall_ms / cpu_ms);
    return json::Object{
        {"runs_per_s", metric(static_cast<double>(n) / round_s, "runs/s")},
        {"run_ms_p50", metric(percentile(run_ms, 0.5), "ms")},
        {"run_ms_p90", metric(percentile(run_ms, 0.9), "ms")},
        {"sim_minstr_per_s",
         metric(static_cast<double>(round_instr) / round_s / 1e6,
                "Minstr/s")},
        {"setup_s", metric(median(setups), "s")},
        {"peak_rss_mb", metric(peakRssMb(), "MiB")},
        {"sim_cycles", metric(static_cast<double>(round_cycles), "cycles")},
        {"sim_energy_uj", metric(round_energy_pj / 1e6, "uJ")},
        {"ok_share", metric(ok_share, "ratio")},
    };
}

/** Work counts of one cell, taken in the first traced round. */
struct CellCounts {
    sw::sim::Stats stats;
    std::uint64_t statements = 0, funcs = 0, relocs = 0, blocks = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t swap_ins = 0, evictions = 0; ///< SwapRAM cells only
};

/** Host times of one cell, summed over the traced rounds. */
struct CellTimes {
    std::int64_t runone = 0, traced = 0, untraced = 0;
    std::int64_t plain = 0, timeline = 0, profile = 0, metrics = 0;
};

/** The per-run split metric a span's self time is charged to
 *  (nullptr: the observer layers, reported per attached run). */
const char *
layerMetric(const std::string &span)
{
    static const std::map<std::string, const char *> kLayers = {
        {"masm.parse", "masm.parse_us"},
        {"masm.assemble", "masm.assemble_us"},
        {"swapram.build", "swapram.build_us"},
        {"blockcache.build", "blockcache.build_us"},
        {"sim.setup", "sim.setup_us"},
        {"sim.run", "sim.run_us"},
    };
    auto it = kLayers.find(span);
    return it == kLayers.end() ? nullptr : it->second;
}

void
writeSpans(const std::string &path, const Tracer &tracer,
           const std::vector<std::string> &trace_cells)
{
    std::ofstream out(path);
    if (!out)
        sw::support::fatal("perfbench: cannot write '", path, "'");
    for (const Tracer::Span &s : tracer.spans()) {
        json::Value line = json::Object{
            {"trace", s.trace},
            {"id", s.id},
            {"parent", s.parent},
            {"name", s.name},
            {"cell", trace_cells[s.trace - 1]},
            {"start_ns", s.start_ns},
            {"dur_ns", s.end_ns - s.start_ns},
        };
        out << line.dump() << "\n";
    }
}

/** --trace 1: per-layer metrics from the replayed, span-traced runs. */
json::Object
traced(const Args &args, const Inputs &in, Verifier &verifier,
       json::Object &exact, bool &replica_ok)
{
    using perfbench::Observers;
    const std::size_t n = in.cells.size();
    sw::harness::Engine engine(1);
    engineRound(engine, in, canonicalOrder(n), verifier);

    Tracer tracer(true), off(false);
    std::vector<std::string> trace_cells;
    std::vector<std::optional<CellCounts>> counts(n);
    std::vector<CellTimes> times(n);
    std::mt19937_64 rng(args.seed);
    std::uint64_t cell_runs = 0, rounds = 0;
    const std::int64_t start = perfbench::nowNs();
    do {
        std::vector<std::size_t> order = canonicalOrder(n);
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t idx : order) {
            const Cell &cell = in.cells[idx];
            const sw::harness::RunSpec &spec = cell.spec;
            sw::harness::RunOutcome o;
            std::int64_t t0 = perfbench::nowNs();
            try {
                o.metrics = sw::harness::runOne(spec);
            } catch (const std::exception &e) {
                o.error = true;
                o.error_text = e.what();
            }
            times[idx].runone += perfbench::nowNs() - t0;
            verifier.record(idx, o);
            if (o.error)
                continue;
            const sw::harness::Metrics &m = o.metrics;

            // The replica with and without spans; which goes first
            // alternates by round so neither always runs warmer.
            auto untraced = [&] {
                std::int64_t u0 = perfbench::nowNs();
                perfbench::simulate(spec, perfbench::build(spec, off),
                                    perfbench::observersOf(spec), off);
                times[idx].untraced += perfbench::nowNs() - u0;
            };
            if (rounds % 2)
                untraced();
            tracer.newTrace();
            trace_cells.push_back(cell.name);
            t0 = perfbench::nowNs();
            perfbench::Built built;
            perfbench::SimResult r;
            {
                Tracer::Scope root = tracer.span("cell");
                built = perfbench::build(spec, tracer);
                r = perfbench::simulate(spec, built,
                                        perfbench::observersOf(spec), tracer);
            }
            times[idx].traced += perfbench::nowNs() - t0;
            if (rounds % 2 == 0)
                untraced();
            if (r.done != m.done || r.checksum != m.checksum ||
                perfbench::simulatedFields(r.stats) !=
                    perfbench::simulatedFields(m.stats) ||
                perfbench::hostFields(r.stats) !=
                    perfbench::hostFields(m.stats)) {
                replica_ok = false;
                verifier.fail(idx, "replica pipeline differs from runOne");
            }

            // One observer at a time on the same image, each under its
            // own root span.
            auto variant = [&](const char *name, const Observers &obs) {
                Tracer::Scope root = tracer.span(name);
                return perfbench::simulate(spec, built, obs, tracer);
            };
            const bool cache = spec.system != sw::harness::System::Baseline;
            perfbench::SimResult plain = variant("observe.none", {});
            perfbench::SimResult tl;
            if (cache)
                tl = variant("observe.timeline", {true, false, false});
            perfbench::SimResult pr =
                variant("observe.profile", {false, true, false});
            perfbench::SimResult me =
                variant("observe.metrics", {false, false, true});
            times[idx].plain += plain.run_ns;
            times[idx].timeline += tl.run_ns;
            times[idx].profile += pr.run_ns;
            times[idx].metrics += me.run_ns;
            for (const perfbench::SimResult *v : {&plain, &pr, &me}) {
                if (perfbench::simulatedFields(v->stats) !=
                    perfbench::simulatedFields(m.stats))
                    verifier.fail(idx, "an observer changed the run");
            }

            CellCounts c;
            c.stats = m.stats;
            c.statements = built.statements;
            c.funcs = built.funcs;
            c.relocs = built.relocs;
            c.blocks = built.blocks;
            c.trace_events = m.trace_emitted;
            if (spec.system == sw::harness::System::SwapRam) {
                c.swap_ins = tl.summary.copy_ins;
                c.evictions = tl.summary.evictions;
            }
            if (!counts[idx])
                counts[idx] = c;
            else if (perfbench::hostFields(c.stats) !=
                     perfbench::hostFields(counts[idx]->stats))
                verifier.fail(idx, "host counters differ between rounds");
            ++cell_runs;
        }
        ++rounds;
    } while (static_cast<double>(perfbench::nowNs() - start) / 1e9 <
             args.seconds);
    verifier.finish();

    // Work counts: every round is identical, so sum one round in
    // canonical order and divide by the cells (per run).
    std::uint64_t statements = 0, funcs = 0, relocs = 0, blocks = 0;
    std::uint64_t events = 0, swap_ins = 0, evictions = 0;
    sw::sim::Stats t; // totals of the counters used below
    std::uint64_t handler_instr = 0, total_cycles = 0, bails = 0;
    for (const std::optional<CellCounts> &c : counts) {
        if (!c)
            continue;
        const sw::sim::Stats &s = c->stats;
        statements += c->statements;
        funcs += c->funcs;
        relocs += c->relocs;
        blocks += c->blocks;
        events += c->trace_events;
        swap_ins += c->swap_ins;
        evictions += c->evictions;
        t.instructions += s.instructions;
        t.stall_cycles += s.stall_cycles;
        total_cycles += s.totalCycles();
        t.fram_cache_hits += s.fram_cache_hits;
        t.fram_cache_misses += s.fram_cache_misses;
        handler_instr += s.instr_by_owner[2] + s.instr_by_owner[3];
        t.predecode_hits += s.predecode_hits;
        t.predecode_misses += s.predecode_misses;
        t.predecode_invalidations += s.predecode_invalidations;
        t.superblock_invalidations += s.superblock_invalidations;
        t.superblock_instructions += s.superblock_instructions;
        t.threaded_instructions += s.threaded_instructions;
        t.threaded_dispatches += s.threaded_dispatches;
        t.threaded_blocks_lowered += s.threaded_blocks_lowered;
        bails += s.superblock_bail_operand + s.superblock_bail_smc +
                 s.superblock_bail_boundary + s.threaded_bail_operand +
                 s.threaded_bail_smc + s.threaded_bail_boundary;
    }
    const double cells = static_cast<double>(n);
    auto perRun = [cells](std::uint64_t v) {
        return static_cast<double>(v) / cells;
    };
    auto share = [](std::uint64_t a, std::uint64_t b) {
        return ratio(static_cast<double>(a), static_cast<double>(b));
    };
    struct Counted {
        const char *name;
        double value;
        const char *unit;
    };
    const Counted counted[] = {
        {"masm.statements", perRun(statements), "count"},
        {"swapram.funcs", perRun(funcs), "count"},
        {"swapram.relocs", perRun(relocs), "count"},
        {"blockcache.blocks", perRun(blocks), "count"},
        {"sim.instructions", perRun(t.instructions), "count"},
        {"sim.threaded_share",
         share(t.threaded_instructions, t.instructions), "ratio"},
        {"sim.superblock_share",
         share(t.superblock_instructions + t.threaded_instructions,
               t.instructions),
         "ratio"},
        {"sim.predecode_hit_ratio",
         share(t.predecode_hits, t.predecode_hits + t.predecode_misses),
         "ratio"},
        {"sim.invalidations",
         perRun(t.superblock_invalidations + t.predecode_invalidations),
         "count"},
        {"sim.fastpath_bails", perRun(bails), "count"},
        {"sim.dispatches_per_lowered_block",
         share(t.threaded_dispatches, t.threaded_blocks_lowered), "ratio"},
        {"sim.stall_share", share(t.stall_cycles, total_cycles), "ratio"},
        {"sim.fram_hwcache_hit_ratio",
         share(t.fram_cache_hits, t.fram_cache_hits + t.fram_cache_misses),
         "ratio"},
        {"swapram.handler_instr_share", share(handler_instr, t.instructions),
         "ratio"},
        {"swapram.swap_ins", perRun(swap_ins), "count"},
        {"swapram.evictions", perRun(evictions), "count"},
        {"trace.events", perRun(events), "count"},
    };
    json::Object out;
    for (const Counted &k : counted) {
        exact[k.name] = k.value;
        out[k.name] = metric(k.value, k.unit);
    }

    // Host times: the self time of every span. Spans under a "cell"
    // root split the workload's own runs into layers; the observer
    // layers' cost per attached run also counts the observe.* roots.
    std::map<std::string, double> self_ns;
    std::map<std::string, double> observer_ns, observer_runs;
    const std::vector<Tracer::Span> &spans = tracer.spans();
    std::vector<std::int64_t> child_ns(spans.size() + 1, 0);
    std::vector<std::uint64_t> root(spans.size() + 1, 0);
    for (const Tracer::Span &s : spans) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
        root[s.id] = s.parent ? root[s.parent] : s.id;
    }
    double layer_ns = 0;
    for (const Tracer::Span &s : spans) {
        const std::string name = s.name;
        double self = static_cast<double>(s.end_ns - s.start_ns -
                                          child_ns[s.id]);
        const std::string layer = name.substr(0, name.find('.'));
        if (layer == "trace" || layer == "metrics") {
            observer_ns[layer] += self;
            if (name.ends_with(".attach"))
                observer_runs[layer] += 1;
        }
        if (std::string(spans[root[s.id] - 1].name) != "cell")
            continue;
        if (const char *metric_name = layerMetric(name))
            self_ns[metric_name] += self;
        if (s.parent)
            layer_ns += self;
    }
    CellTimes sum;
    CellTimes cache_sum;
    for (std::size_t i = 0; i < n; ++i) {
        const CellTimes &c = times[i];
        sum.runone += c.runone;
        sum.traced += c.traced;
        sum.untraced += c.untraced;
        sum.plain += c.plain;
        sum.profile += c.profile;
        sum.metrics += c.metrics;
        if (in.cells[i].spec.system != sw::harness::System::Baseline) {
            cache_sum.plain += c.plain;
            cache_sum.timeline += c.timeline;
        }
    }
    const double runs = static_cast<double>(std::max<std::uint64_t>(
        cell_runs, 1));
    auto us = [runs](double ns) { return ns / runs / 1e3; };

    for (const char *name :
         {"masm.parse_us", "masm.assemble_us", "swapram.build_us",
          "blockcache.build_us", "sim.setup_us", "sim.run_us"})
        out[name] = metric(us(self_ns[name]), "us");
    for (const char *layer : {"trace", "metrics"}) {
        out[std::string(layer) + ".self_us"] = metric(
            ratio(observer_ns[layer], observer_runs[layer]) / 1e3, "us");
    }
    out["harness.runone_us"] =
        metric(us(static_cast<double>(sum.runone)), "us");
    out["harness.other_us"] =
        metric(us(static_cast<double>(sum.runone) - layer_ns), "us");
    out["bench.tracing_overhead_us"] = metric(
        us(static_cast<double>(sum.traced - sum.untraced)), "us");
    out["trace.timeline_overhead_ratio"] = metric(
        ratio(static_cast<double>(cache_sum.timeline),
              static_cast<double>(cache_sum.plain)),
        "ratio");
    out["trace.profile_overhead_ratio"] = metric(
        ratio(static_cast<double>(sum.profile),
              static_cast<double>(sum.plain)),
        "ratio");
    out["metrics.overhead_ratio"] = metric(
        ratio(static_cast<double>(sum.metrics),
              static_cast<double>(sum.plain)),
        "ratio");

    if (!args.spans_out.empty())
        writeSpans(args.spans_out, tracer, trace_cells);
    std::fprintf(stderr, "perfbench: %s traced: %llu cell runs, %zu spans\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(cell_runs), spans.size());
    return out;
}

int
benchMain(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    const Inputs in = perfbench::prepare(args.workload, args.golden);
    Verifier verifier(in.cells);
    json::Object exact;
    json::Object metrics;
    bool replica_ok = true;
    if (args.trace == 0)
        metrics = endToEnd(args, in, verifier, exact);
    else
        metrics = traced(args, in, verifier, exact, replica_ok);

    const std::uint64_t failed = verifier.failed();
    json::Value result = json::Object{
        {"correct", failed == 0 && replica_ok},
        {"attempted", verifier.attempted()},
        {"failed", failed},
        {"metrics", metrics},
        {"exact", exact},
    };
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
