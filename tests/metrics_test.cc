/**
 * @file
 * Metrics layer tests (ISSUE 6): histogram bucket boundaries and
 * percentile semantics against a brute-force reference, bucket-wise
 * merge associativity, registry behaviour, heatmap page accounting
 * summing exactly to the simulator's Stats access counts, engine
 * progress callbacks, and flamegraph folded-stack attribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "harness/engine.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "metrics/heatmap.hh"
#include "metrics/metrics.hh"
#include "metrics/run_metrics.hh"
#include "sim/memory.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using metrics::AddressHeatmap;
using metrics::Histogram;

const workloads::Workload &
workload(const std::string &name)
{
    const workloads::Workload *w = workloads::find(name);
    if (!w)
        support::fatal("test workload missing: ", name);
    return *w;
}

// ---------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundaries)
{
    EXPECT_EQ(Histogram::bucketFor(0), 0);
    EXPECT_EQ(Histogram::bucketFor(1), 1);
    EXPECT_EQ(Histogram::bucketFor(2), 2);
    EXPECT_EQ(Histogram::bucketFor(3), 2);
    EXPECT_EQ(Histogram::bucketFor(4), 3);
    EXPECT_EQ(Histogram::bucketFor(7), 3);
    EXPECT_EQ(Histogram::bucketFor(8), 4);
    EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), 64);

    // Every power of two starts a fresh bucket; the value one below
    // closes the previous one.
    for (int k = 0; k < 63; ++k) {
        std::uint64_t p = 1ull << k;
        EXPECT_EQ(Histogram::bucketFor(p), k + 1) << p;
        EXPECT_EQ(Histogram::bucketLow(k + 1), p) << p;
        if (k > 0) {
            EXPECT_EQ(Histogram::bucketHigh(k), p - 1) << p;
        }
    }
    // Bucket bounds tile the domain: high(i) + 1 == low(i+1).
    for (int i = 1; i < Histogram::kBuckets - 1; ++i)
        EXPECT_EQ(Histogram::bucketHigh(i) + 1, Histogram::bucketLow(i + 1));
}

TEST(Histogram, ExactAggregates)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    std::vector<std::uint64_t> values{0, 1, 1, 3, 9, 100, 7, 64};
    std::uint64_t sum = 0;
    for (std::uint64_t v : values) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), values.size());
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) /
                                   static_cast<double>(values.size()));
}

/** The documented contract: percentile(p) is the inclusive upper
 *  bound of the bucket holding the nearest-rank element, clamped to
 *  the exact max. Checked against a brute-force sorted reference. */
std::uint64_t
referencePercentile(std::vector<std::uint64_t> values, double p)
{
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank == 0)
        rank = 1;
    std::uint64_t exact = values[rank - 1];
    std::uint64_t high =
        Histogram::bucketHigh(Histogram::bucketFor(exact));
    std::uint64_t max = values.back();
    return high < max ? high : max;
}

TEST(Histogram, PercentilesMatchBruteForce)
{
    // Deterministic pseudo-random values (no host randomness).
    std::vector<std::uint64_t> values;
    std::uint64_t x = 12345;
    for (int i = 0; i < 500; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        values.push_back(x % 10'000);
    }
    Histogram h;
    for (std::uint64_t v : values)
        h.record(v);
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                     100.0}) {
        EXPECT_EQ(h.percentile(p), referencePercentile(values, p))
            << "p=" << p;
    }
}

TEST(Histogram, ConstantDistributionPercentilesAreExact)
{
    Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(3);
    EXPECT_EQ(h.p50(), 3u);
    EXPECT_EQ(h.p95(), 3u);
    EXPECT_EQ(h.p99(), 3u);
}

TEST(Histogram, MergeIsAssociativeAndLossless)
{
    auto fill = [](Histogram &h, std::uint64_t seed, int n) {
        std::uint64_t x = seed;
        for (int i = 0; i < n; ++i) {
            x = x * 2862933555777941757ull + 3037000493ull;
            h.record(x % 100'000);
        }
    };
    Histogram a, b, c, all;
    fill(a, 1, 100);
    fill(b, 2, 200);
    fill(c, 3, 50);
    fill(all, 1, 100);
    fill(all, 2, 200);
    fill(all, 3, 50);

    // (a + b) + c
    Histogram left = a;
    left.merge(b);
    left.merge(c);
    // a + (b + c)
    Histogram bc = b;
    bc.merge(c);
    Histogram right = a;
    right.merge(bc);

    for (const Histogram *h : {&left, &right}) {
        EXPECT_EQ(h->count(), all.count());
        EXPECT_EQ(h->sum(), all.sum());
        EXPECT_EQ(h->min(), all.min());
        EXPECT_EQ(h->max(), all.max());
        EXPECT_EQ(h->buckets(), all.buckets());
        EXPECT_EQ(h->p50(), all.p50());
        EXPECT_EQ(h->p99(), all.p99());
    }
}

TEST(Histogram, MergeEmptyKeepsMin)
{
    Histogram a, b;
    a.record(5);
    a.merge(b); // empty right-hand side
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // empty left-hand side adopts the other's min
    EXPECT_EQ(b.min(), 5u);
    EXPECT_EQ(b.max(), 5u);
}

// ---------------------------------------------------------------------
// Registry

TEST(Registry, ReferencesAreStableAndNamed)
{
    metrics::Registry reg;
    metrics::Counter &c = reg.counter("swaps");
    c.inc();
    reg.counter("other").inc(41);
    // The first reference still points at the same instrument after
    // more insertions (std::map node stability).
    c.inc();
    EXPECT_EQ(reg.counter("swaps").value, 2u);
    EXPECT_EQ(reg.counter("other").value, 41u);

    reg.gauge("depth").set(7);
    reg.histogram("lat").record(16);
    EXPECT_EQ(reg.gauges().at("depth").value, 7);
    EXPECT_EQ(reg.histograms().at("lat").count(), 1u);
}

TEST(Registry, MergeByName)
{
    metrics::Registry a, b;
    a.counter("x").inc(1);
    b.counter("x").inc(2);
    b.counter("only_b").inc(5);
    a.gauge("g").set(3);
    b.gauge("g").set(9);
    a.histogram("h").record(1);
    b.histogram("h").record(100);

    a.merge(b);
    EXPECT_EQ(a.counter("x").value, 3u);
    EXPECT_EQ(a.counter("only_b").value, 5u);
    EXPECT_EQ(a.gauge("g").value, 9); // merge keeps the max
    EXPECT_EQ(a.histogram("h").count(), 2u);
    EXPECT_EQ(a.histogram("h").max(), 100u);
}

// ---------------------------------------------------------------------
// Heatmap

TEST(Heatmap, PageGeometryAndRecording)
{
    EXPECT_EQ(AddressHeatmap::kPageBytes, 64u);
    EXPECT_EQ(AddressHeatmap::kPages, 1024u);
    EXPECT_EQ(AddressHeatmap::pageOf(0x0000), 0u);
    EXPECT_EQ(AddressHeatmap::pageOf(0x003F), 0u);
    EXPECT_EQ(AddressHeatmap::pageOf(0x0040), 1u);
    EXPECT_EQ(AddressHeatmap::baseOf(AddressHeatmap::pageOf(0x8123)),
              0x8100u); // 0x8123 & ~63
    AddressHeatmap hm;
    hm.recordFetch(0x8000);
    hm.recordFetch(0x8001);
    hm.recordRead(0x803F);
    hm.recordWrite(0x8040);
    hm.recordStall(0x8000, 3);
    const AddressHeatmap::Page &p0 = hm.page(AddressHeatmap::pageOf(0x8000));
    EXPECT_EQ(p0.fetch, 2u);
    EXPECT_EQ(p0.read, 1u);
    EXPECT_EQ(p0.write, 0u);
    EXPECT_EQ(p0.stall_cycles, 3u);
    EXPECT_EQ(hm.page(AddressHeatmap::pageOf(0x8040)).write, 1u);
    AddressHeatmap::Page t = hm.totals();
    EXPECT_EQ(t.fetch, 2u);
    EXPECT_EQ(t.read, 1u);
    EXPECT_EQ(t.write, 1u);
    EXPECT_EQ(t.stall_cycles, 3u);
}

TEST(Heatmap, TopPagesOrderAndMerge)
{
    AddressHeatmap a;
    for (int i = 0; i < 10; ++i)
        a.recordFetch(0x8000);
    for (int i = 0; i < 5; ++i)
        a.recordFetch(0x2000);
    a.recordStall(0x9000, 7);

    std::vector<unsigned> top = a.topPages(8);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0], AddressHeatmap::pageOf(0x8000));
    EXPECT_EQ(top[1], AddressHeatmap::pageOf(0x9000));
    EXPECT_EQ(top[2], AddressHeatmap::pageOf(0x2000));

    // Ties break by address (deterministic reports).
    AddressHeatmap tie;
    tie.recordFetch(0x9000);
    tie.recordFetch(0x8000);
    std::vector<unsigned> t2 = tie.topPages(2);
    ASSERT_EQ(t2.size(), 2u);
    EXPECT_LT(t2[0], t2[1]);

    AddressHeatmap b;
    b.recordWrite(0x8000);
    a.merge(b);
    EXPECT_EQ(a.page(AddressHeatmap::pageOf(0x8000)).write, 1u);
    EXPECT_EQ(a.page(AddressHeatmap::pageOf(0x8000)).fetch, 10u);
}

// ---------------------------------------------------------------------
// Simulator integration: heatmap accounting == Stats, metrics do not
// perturb simulated results.

/** Per-region heatmap totals, classified like the report layer. */
std::map<std::string, AddressHeatmap::Page>
regionTotals(const AddressHeatmap &hm)
{
    std::map<std::string, AddressHeatmap::Page> out;
    for (unsigned i = 0; i < AddressHeatmap::kPages; ++i) {
        const AddressHeatmap::Page &p = hm.page(i);
        if (p.empty())
            continue;
        switch (sim::regionOf(AddressHeatmap::baseOf(i))) {
          case sim::RegionKind::Sram: out["sram"].merge(p); break;
          case sim::RegionKind::Fram: out["fram"].merge(p); break;
          case sim::RegionKind::Mmio: out["mmio"].merge(p); break;
          case sim::RegionKind::Unmapped: out["unmapped"].merge(p); break;
        }
    }
    return out;
}

void
expectHeatmapMatchesStats(const harness::Metrics &m)
{
    ASSERT_TRUE(m.run_metrics);
    auto regions = regionTotals(m.run_metrics->heatmap);
    const sim::Stats &s = m.stats;
    EXPECT_EQ(regions["sram"].fetch, s.sram.fetch);
    EXPECT_EQ(regions["sram"].read, s.sram.read);
    EXPECT_EQ(regions["sram"].write, s.sram.write);
    EXPECT_EQ(regions["fram"].fetch, s.fram.fetch);
    EXPECT_EQ(regions["fram"].read, s.fram.read);
    EXPECT_EQ(regions["fram"].write, s.fram.write);
    EXPECT_EQ(regions["mmio"].fetch, s.mmio.fetch);
    EXPECT_EQ(regions["mmio"].read, s.mmio.read);
    EXPECT_EQ(regions["mmio"].write, s.mmio.write);
    EXPECT_EQ(regions.count("unmapped"), 0u);

    // Every stalled FRAM access recorded one histogram sample; the
    // stall totals agree page-wise and in the histogram sum.
    EXPECT_EQ(m.run_metrics->fram_stall_cycles.sum(), s.stall_cycles);
    EXPECT_EQ(m.run_metrics->heatmap.totals().stall_cycles,
              s.stall_cycles);
}

harness::Metrics
runWithMetrics(const std::string &wl, harness::System system)
{
    harness::RunSpec spec = harness::sweepSpec(workload(wl), system);
    spec.observe.metrics = true;
    return harness::runOne(spec);
}

TEST(MetricsIntegration, HeatmapSumsToStatsBaseline)
{
    harness::Metrics m = runWithMetrics("crc", harness::System::Baseline);
    ASSERT_TRUE(m.done);
    expectHeatmapMatchesStats(m);
}

TEST(MetricsIntegration, HeatmapSumsToStatsSwapRam)
{
    harness::Metrics m = runWithMetrics("crc", harness::System::SwapRam);
    ASSERT_TRUE(m.done);
    expectHeatmapMatchesStats(m);

    // Each reconstructed miss span recorded one handler sample.
    EXPECT_EQ(m.run_metrics->miss_handler_cycles.count(),
              m.swap_summary.misses);
    EXPECT_EQ(m.run_metrics->miss_handler_cycles.sum(),
              m.swap_summary.handler_cycles);
}

TEST(MetricsIntegration, MetricsDoNotPerturbSimulatedResults)
{
    harness::RunSpec plain =
        harness::sweepSpec(workload("crc"), harness::System::SwapRam);
    harness::Metrics base = harness::runOne(plain);

    harness::Metrics with =
        runWithMetrics("crc", harness::System::SwapRam);
    EXPECT_EQ(with.checksum, base.checksum);
    EXPECT_EQ(with.stats.simulated(), base.stats.simulated());
    EXPECT_EQ(with.console, base.console);
    EXPECT_EQ(with.data_snapshot, base.data_snapshot);
}

TEST(MetricsIntegration, RunReportEmbedsMetricsJson)
{
    harness::RunSpec spec =
        harness::sweepSpec(workload("crc"), harness::System::SwapRam);
    spec.observe.metrics = true;
    harness::Metrics m = harness::runOne(spec);
    harness::RunReport report = harness::RunReport::make(spec, m);
    const support::json::Value doc = report.json();
    const auto &root = doc.asObject();
    ASSERT_TRUE(root.count("metrics"));
    const auto &mj = root.at("metrics").asObject();
    EXPECT_EQ(mj.at("schema").asString(), "swapram-metrics/v1");
    ASSERT_TRUE(mj.count("heatmap"));
    ASSERT_TRUE(mj.count("histograms"));
    const auto &hist = mj.at("histograms").asObject();
    ASSERT_TRUE(hist.count("fram_stall_cycles"));
    EXPECT_EQ(static_cast<std::uint64_t>(
                  hist.at("fram_stall_cycles").asObject().at("sum")
                      .asInt()),
              m.stats.stall_cycles);
}

TEST(MetricsIntegration, RunMetricsMergeAcrossRuns)
{
    harness::Metrics a = runWithMetrics("crc", harness::System::Baseline);
    harness::Metrics b = runWithMetrics("rc4", harness::System::Baseline);
    metrics::RunMetrics merged;
    merged.merge(*a.run_metrics);
    merged.merge(*b.run_metrics);
    EXPECT_EQ(merged.heatmap.totals().fetch,
              a.run_metrics->heatmap.totals().fetch +
                  b.run_metrics->heatmap.totals().fetch);
    EXPECT_EQ(merged.fram_stall_cycles.sum(),
              a.stats.stall_cycles + b.stats.stall_cycles);
    EXPECT_EQ(merged.registry.counter("runs").value, 2u);
}

// ---------------------------------------------------------------------
// Engine progress

TEST(EngineProgress, CallbackCountsAndErrors)
{
    std::vector<harness::RunSpec> specs;
    specs.push_back(
        harness::sweepSpec(workload("crc"), harness::System::Baseline));
    specs.push_back(
        harness::sweepSpec(workload("rc4"), harness::System::Baseline));
    specs.push_back({}); // null workload -> captured error outcome

    for (unsigned jobs : {1u, 4u}) {
        harness::Engine engine(jobs);
        std::vector<std::size_t> dones;
        std::size_t final_errors = 0;
        std::vector<bool> seen(specs.size(), false);
        auto progress = [&](const harness::Progress &p) {
            EXPECT_EQ(p.total, specs.size());
            ASSERT_NE(p.outcome, nullptr);
            EXPECT_LT(p.index, specs.size());
            seen[p.index] = true;
            dones.push_back(p.done);
            final_errors = p.errors;
        };
        std::vector<harness::RunOutcome> outcomes =
            engine.runAll(specs, progress);
        ASSERT_EQ(dones.size(), specs.size()) << "jobs=" << jobs;
        // done is monotonically 1..N (the callback is serialized).
        std::vector<std::size_t> expect_dones;
        for (std::size_t i = 1; i <= specs.size(); ++i)
            expect_dones.push_back(i);
        EXPECT_EQ(dones, expect_dones) << "jobs=" << jobs;
        EXPECT_EQ(final_errors, 1u) << "jobs=" << jobs;
        EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                                [](bool b) { return b; }));
        EXPECT_TRUE(outcomes[2].error);
        EXPECT_FALSE(outcomes[2].error_text.empty());
    }
}

TEST(EngineProgress, NoCallbackStillRuns)
{
    harness::Engine engine(2);
    std::vector<harness::RunSpec> specs{
        harness::sweepSpec(workload("crc"), harness::System::Baseline)};
    std::vector<harness::RunOutcome> outcomes = engine.runAll(specs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok());
}

// ---------------------------------------------------------------------
// Flamegraph folded stacks

TEST(FoldedStacks, CyclesSumToAttribution)
{
    harness::RunSpec spec =
        harness::sweepSpec(workload("crc"), harness::System::SwapRam);
    spec.observe.profile = true;
    harness::Metrics m = harness::runOne(spec);
    ASSERT_TRUE(m.done);
    ASSERT_FALSE(m.folded.empty());

    std::uint64_t folded_sum = 0;
    bool saw_start_root = false;
    for (const trace::FoldedStack &f : m.folded) {
        EXPECT_GT(f.cycles, 0u);
        folded_sum += f.cycles;
        if (f.stack.rfind("__start", 0) == 0)
            saw_start_root = true;
    }
    // Every instruction lands in exactly one stack, so folded weights
    // sum to the profiler's total attribution == total cycles.
    EXPECT_EQ(folded_sum, m.stats.totalCycles());
    EXPECT_TRUE(saw_start_root);

    // The hot path shows up as a proper call chain under __start.
    bool saw_chain = false;
    for (const trace::FoldedStack &f : m.folded) {
        if (f.stack.find("__start;") == 0 &&
            f.stack.find(";crc_block") != std::string::npos)
            saw_chain = true;
    }
    EXPECT_TRUE(saw_chain);
}

TEST(FoldedStacks, DeterministicAcrossRuns)
{
    harness::RunSpec spec =
        harness::sweepSpec(workload("rc4"), harness::System::SwapRam);
    spec.observe.profile = true;
    harness::Metrics a = harness::runOne(spec);
    harness::Metrics b = harness::runOne(spec);
    ASSERT_EQ(a.folded.size(), b.folded.size());
    for (std::size_t i = 0; i < a.folded.size(); ++i) {
        EXPECT_EQ(a.folded[i].stack, b.folded[i].stack);
        EXPECT_EQ(a.folded[i].cycles, b.folded[i].cycles);
    }
}

} // namespace
