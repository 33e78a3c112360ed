/**
 * @file
 * Tests for the observability subsystem (ISSUE 1): the trace engine
 * (emission, category filtering, ring bounds), the sinks (text/CSV
 * shape, Chrome trace_event well-formedness), the per-function
 * profiler (exact cycle attribution), the swap timeline, and the
 * RunReport JSON schema.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "trace/event.hh"
#include "trace/profile.hh"
#include "trace/sinks.hh"
#include "trace/swap_timeline.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
namespace json = support::json;

trace::Event
ev(std::uint64_t cycle, trace::EventKind kind, std::uint16_t addr = 0,
   std::uint16_t value = 0, std::uint32_t extra = 0)
{
    return {cycle, kind, 0, addr, value, extra};
}

TEST(TraceEngine, DeliversMatchingEventsToRingAndSinks)
{
    struct Capture : trace::Sink {
        std::vector<trace::Event> seen;
        void event(const trace::Event &e) override
        {
            seen.push_back(e);
        }
    } cap;

    trace::TraceEngine engine(trace::kCatAll, 16);
    engine.addSink(&cap, trace::kCatInstr);
    engine.emit(ev(1, trace::EventKind::InstrRetire, 0x8000));
    engine.emit(ev(2, trace::EventKind::Read, 0x2000));
    engine.emit(ev(3, trace::EventKind::FramStall, 0x8004));

    // The sink only subscribed to instructions...
    ASSERT_EQ(cap.seen.size(), 1u);
    EXPECT_EQ(cap.seen[0].cycle, 1u);
    // ...but the ring recorded everything.
    EXPECT_EQ(engine.ring().size(), 3u);
    EXPECT_EQ(engine.emitted(), 3u);
    EXPECT_EQ(engine.dropped(), 0u);
}

TEST(TraceEngine, MaskIsUnionOfRingAndSinks)
{
    struct Null : trace::Sink {
        void event(const trace::Event &) override {}
    } sink;

    trace::TraceEngine engine(trace::kCatInstr, 16);
    EXPECT_TRUE(engine.wants(trace::kCatInstr));
    EXPECT_FALSE(engine.wants(trace::kCatSwap));
    engine.addSink(&sink, trace::kCatSwap);
    EXPECT_TRUE(engine.wants(trace::kCatSwap));

    // Events nobody wants are not counted or stored.
    engine.emit(ev(1, trace::EventKind::Read, 0x2000));
    EXPECT_EQ(engine.emitted(), 0u);
    EXPECT_TRUE(engine.ring().empty());
}

TEST(TraceEngine, RingIsBoundedAndKeepsNewest)
{
    trace::TraceEngine engine(trace::kCatAll, 4);
    for (std::uint64_t c = 0; c < 10; ++c)
        engine.emit(ev(c, trace::EventKind::InstrRetire));
    auto ring = engine.ring();
    ASSERT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.front().cycle, 6u); // oldest surviving
    EXPECT_EQ(ring.back().cycle, 9u);
    EXPECT_EQ(engine.emitted(), 10u);
    EXPECT_EQ(engine.dropped(), 6u);
}

TEST(TraceEngine, ZeroCapacityDisablesRing)
{
    trace::TraceEngine engine(trace::kCatAll, 0);
    EXPECT_EQ(engine.mask(), trace::kCatNone);
    engine.emit(ev(1, trace::EventKind::InstrRetire));
    EXPECT_TRUE(engine.ring().empty());
    EXPECT_EQ(engine.emitted(), 0u);
}

TEST(TraceEngine, SinkOnlyEngineKeepsNoRing)
{
    struct Capture : trace::Sink {
        std::vector<trace::Event> seen;
        void event(const trace::Event &e) override
        {
            seen.push_back(e);
        }
    } cap;

    // The runner's shape for a swap-timeline run: nothing recorded,
    // one sink fed.
    trace::TraceEngine engine(trace::kCatNone);
    EXPECT_EQ(engine.ringCapacity(), 0u);
    engine.addSink(&cap, trace::kCatAll);
    engine.emit(ev(1, trace::EventKind::InstrRetire, 0x8000));
    engine.emit(ev(2, trace::EventKind::Read, 0x2000));
    engine.emit(ev(3, trace::EventKind::FramStall, 0x8004));

    ASSERT_EQ(cap.seen.size(), 3u);
    EXPECT_EQ(cap.seen[0].cycle, 1u);
    EXPECT_EQ(cap.seen[2].cycle, 3u);
    EXPECT_EQ(engine.emitted(), 3u);
    EXPECT_EQ(engine.dropped(), 0u);
    EXPECT_TRUE(engine.ring().empty());
    EXPECT_EQ(engine.ringCapacity(), 0u);
}

TEST(TraceEngine, CopyEventsAreSwapEventsAndNoneIsPerStep)
{
    for (trace::EventKind kind :
         {trace::EventKind::CopyBegin, trace::EventKind::CopyEnd}) {
        EXPECT_EQ(trace::categoryOf(kind), trace::kCatSwap);
    }
    EXPECT_STREQ(trace::kindName(trace::EventKind::CopyBegin),
                 "copy-begin");
    EXPECT_STREQ(trace::kindName(trace::EventKind::CopyEnd), "copy-end");

    // A swap-only engine wants nothing only the oracle emits, so the
    // machine keeps the whole run on the fast tier.
    trace::TraceEngine swap_only(trace::kCatSwap, 16);
    EXPECT_EQ(swap_only.mask() & trace::kCatPerStep, 0u);

    // The swap timeline reads swap and power events only: a wider
    // subscription adds no per-step category, and copy events reach
    // it.
    trace::SwapTimeline timeline(0x2000, 0x3000);
    trace::TraceEngine engine(trace::kCatNone);
    engine.addSink(&timeline, trace::kCatAll);
    EXPECT_EQ(engine.mask(),
              static_cast<std::uint32_t>(trace::kCatSwap |
                                         trace::kCatPower));
    engine.emit(ev(1, trace::EventKind::Read, 0x8000));
    engine.emit(ev(2, trace::EventKind::CopyBegin, 0x2000, 0x8000, 4));
    engine.emit(ev(3, trace::EventKind::CopyEnd, 0, 0x8004));
    EXPECT_EQ(engine.emitted(), 2u);
}

TEST(TraceCategories, ParseAndNames)
{
    EXPECT_EQ(trace::parseCategories("all"), trace::kCatAll);
    EXPECT_EQ(trace::parseCategories("instr"),
              static_cast<std::uint32_t>(trace::kCatInstr));
    EXPECT_EQ(trace::parseCategories("instr,swap"),
              trace::kCatInstr | trace::kCatSwap);
    EXPECT_THROW(trace::parseCategories("bogus"),
                 support::FatalError);
    EXPECT_EQ(trace::categoryNames(trace::kCatInstr | trace::kCatSwap),
              "instr,swap");
    EXPECT_EQ(trace::categoryNames(trace::kCatNone), "");
}

TEST(TraceSinks, CsvHasHeaderAndOneLinePerEvent)
{
    std::ostringstream out;
    trace::CsvSink sink(out);
    trace::TraceEngine engine(trace::kCatNone, 16);
    engine.addSink(&sink, trace::kCatAll);
    engine.emit(ev(5, trace::EventKind::Read, 0x2000, 0x1234));
    engine.emit(ev(9, trace::EventKind::FramStall, 0x8000, 0, 3));
    engine.finish();

    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "cycle,category,kind,addr,value,extra,byte,symbol");
    int rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, 2);
}

TEST(TraceSinks, StreamLimitStopsOutput)
{
    std::ostringstream out;
    trace::TextSink sink(out);
    sink.setLimit(2);
    trace::TraceEngine engine(trace::kCatNone, 16);
    engine.addSink(&sink, trace::kCatAll);
    for (std::uint64_t c = 0; c < 8; ++c)
        engine.emit(ev(c, trace::EventKind::InstrRetire, 0x8000));
    engine.finish();
    std::istringstream lines(out.str());
    std::string line;
    int rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, 2);
}

TEST(TraceSinks, ChromeTraceIsWellFormedJson)
{
    std::ostringstream out;
    trace::ChromeTraceSink sink(out, 24'000'000);
    trace::TraceEngine engine(trace::kCatNone, 16);
    engine.addSink(&sink, trace::kCatAll);
    engine.emit(ev(0, trace::EventKind::OwnerChange, 0x8000, 0, 0xFF));
    engine.emit(ev(24, trace::EventKind::MissEnter, 0x80F2));
    engine.emit(ev(48, trace::EventKind::CopyIn, 0x2000, 0x8010, 64));
    engine.emit(ev(90, trace::EventKind::MissExit, 0, 1, 66));
    engine.emit(ev(120, trace::EventKind::InstrRetire, 0x2000, 2, 0));
    engine.finish();

    json::Value doc = json::parse(out.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["displayTimeUnit"].asString(), "ms");
    const json::Array &events = doc["traceEvents"].asArray();
    ASSERT_GE(events.size(), 5u);
    int begins = 0, ends = 0;
    for (const json::Value &e : events) {
        ASSERT_TRUE(e.isObject());
        EXPECT_TRUE(e["name"].isString());
        EXPECT_TRUE(e["ph"].isString());
        EXPECT_TRUE(e["ts"].isNumber());
        const std::string &ph = e["ph"].asString();
        begins += ph == "B";
        ends += ph == "E";
    }
    // finish() must close every span it opened.
    EXPECT_EQ(begins, ends);
    // ts is microseconds: cycle 24 @ 24MHz = 1us.
    EXPECT_DOUBLE_EQ(events.at(1)["ts"].asDouble(), 1.0);
}

TEST(FunctionProfiler, AttributesToRangesOverlaysAndPseudoRows)
{
    trace::FunctionProfiler prof;
    prof.addFunction("f", 0x8000, 0x20);
    prof.addFunction("g", 0x8020, 0x10);
    prof.seal();

    trace::StepCosts costs;
    costs.base_cycles = 2;
    prof.record(0x8004, 0, costs); // f (static)
    prof.record(0x8024, 0, costs); // g (static)
    // g becomes cache-resident at 0x2000.
    prof.mapResident(0x2000, 0x10, 0x8020);
    prof.record(0x2008, 1, costs); // g (overlay)
    prof.unmapResident(0x2000);
    prof.record(0x2008, 1, costs); // now unattributable -> pseudo
    prof.record(0x9000, 2, costs); // handler pseudo-bucket

    EXPECT_EQ(prof.attributedCycles(), 10u);
    auto rows = prof.rows(sim::EnergyModel{}, 24'000'000);
    std::uint64_t g_cycles = 0, g_resident = 0;
    bool saw_sram_pseudo = false, saw_handler_pseudo = false;
    for (const auto &r : rows) {
        if (r.name == "g") {
            g_cycles = r.totalCycles();
            g_resident = r.sram_resident_instructions;
        }
        saw_sram_pseudo |= r.name == "[app-sram]";
        saw_handler_pseudo |= r.name == "[handler]";
    }
    EXPECT_EQ(g_cycles, 4u); // static + overlay both land on g
    EXPECT_EQ(g_resident, 1u);
    EXPECT_TRUE(saw_sram_pseudo);
    EXPECT_TRUE(saw_handler_pseudo);
}

/** Run a workload with profiling + timeline through the harness. */
harness::Metrics
observedRun(const char *workload, harness::System system)
{
    const workloads::Workload *wl = workloads::find(workload);
    EXPECT_NE(wl, nullptr);
    harness::RunSpec spec;
    spec.workload = wl;
    spec.system = system;
    spec.observe.profile = true;
    return harness::runOne(spec);
}

TEST(Profiler, BaselineCyclesSumExactlyToTotal)
{
    auto m = observedRun("crc", harness::System::Baseline);
    ASSERT_TRUE(m.done);
    ASSERT_FALSE(m.profile.empty());
    std::uint64_t sum = 0, instrs = 0;
    for (const auto &r : m.profile) {
        sum += r.totalCycles();
        instrs += r.instructions;
    }
    EXPECT_EQ(sum, m.stats.totalCycles());
    // Interrupt entries are recorded as cost, not as instructions.
    EXPECT_EQ(instrs, m.stats.instructions + m.stats.interrupts);
}

TEST(Profiler, SwapRamCyclesSumExactlyToTotal)
{
    auto m = observedRun("crc", harness::System::SwapRam);
    ASSERT_TRUE(m.done);
    std::uint64_t sum = 0;
    bool saw_runtime = false, saw_resident = false;
    for (const auto &r : m.profile) {
        sum += r.totalCycles();
        saw_runtime |= r.name == "__swp_miss";
        saw_resident |= r.sram_resident_instructions > 0;
    }
    EXPECT_EQ(sum, m.stats.totalCycles());
    EXPECT_TRUE(saw_runtime);
    EXPECT_TRUE(saw_resident);
}

TEST(SwapTimeline, ReconstructsMissesAndCopyIns)
{
    auto m = observedRun("crc", harness::System::SwapRam);
    ASSERT_TRUE(m.done);
    EXPECT_GT(m.swap_summary.misses, 0u);
    EXPECT_GT(m.swap_summary.copy_ins, 0u);
    EXPECT_GT(m.swap_summary.bytes_copied, 0u);
    EXPECT_GT(m.swap_summary.peak_resident_bytes, 0u);
    ASSERT_FALSE(m.swap_events.empty());

    // Copy-ins must name a real function and land in the cache.
    bool saw_copy = false;
    for (const auto &e : m.swap_events) {
        if (e.kind != trace::EventKind::CopyIn)
            continue;
        saw_copy = true;
        EXPECT_FALSE(e.func.empty());
        EXPECT_GT(e.bytes, 0u);
        EXPECT_GE(e.cache_addr, 0x2000);
    }
    EXPECT_TRUE(saw_copy);
    ASSERT_FALSE(m.occupancy.empty());
    EXPECT_LE(m.occupancy.back().resident_bytes,
              m.swap_summary.peak_resident_bytes);
}

TEST(Observe, DisabledRunCollectsNothing)
{
    const workloads::Workload *wl = workloads::find("crc");
    harness::RunSpec spec;
    spec.workload = wl;
    spec.system = harness::System::SwapRam;
    auto m = harness::runOne(spec);
    ASSERT_TRUE(m.done);
    EXPECT_EQ(m.trace_emitted, 0u);
    EXPECT_TRUE(m.profile.empty());
    EXPECT_TRUE(m.swap_events.empty());
}

TEST(RunReport, JsonRoundTripsAndMatchesMetrics)
{
    const workloads::Workload *wl = workloads::find("crc");
    harness::RunSpec spec;
    spec.workload = wl;
    spec.system = harness::System::SwapRam;
    spec.observe.profile = true;
    auto m = harness::runOne(spec);
    auto report = harness::RunReport::make(spec, m);

    json::Value doc = json::parse(report.json().dump(2));
    EXPECT_EQ(doc["schema"].asString(), "swapram-run-report/v2");
    EXPECT_EQ(doc["workload"].asString(), "crc");
    EXPECT_EQ(doc["system"].asString(), "swapram");
    EXPECT_TRUE(doc["fits"].asBool());
    EXPECT_TRUE(doc["done"].asBool());
    EXPECT_EQ(doc["stats"]["total_cycles"].asInt(),
              static_cast<std::int64_t>(m.stats.totalCycles()));
    // superblock_dispatches has no writer, so the report leaves it out.
    EXPECT_EQ(doc["host"].asObject().count("superblock_dispatches"), 0u);
    EXPECT_EQ(doc["stats"].asObject().count("threaded_instructions"), 0u);
    EXPECT_EQ(doc["host"]["threaded_blocks_lowered"].asInt(),
              static_cast<std::int64_t>(m.stats.threaded_blocks_lowered));
    EXPECT_EQ(doc["host"]["threaded_bail_boundary"].asInt(),
              static_cast<std::int64_t>(m.stats.threaded_bail_boundary));
    EXPECT_EQ(doc["host"]["threaded_dispatches"].asInt(),
              static_cast<std::int64_t>(m.stats.threaded_dispatches));
    EXPECT_EQ(doc["host"]["threaded_instructions"].asInt(),
              static_cast<std::int64_t>(m.stats.threaded_instructions));

    const json::Array &profile = doc["profile"].asArray();
    ASSERT_EQ(profile.size(), m.profile.size());
    std::int64_t sum = 0;
    for (const json::Value &row : profile)
        sum += row["total_cycles"].asInt();
    EXPECT_EQ(sum, doc["stats"]["total_cycles"].asInt());

    EXPECT_EQ(doc["swap"]["misses"].asInt(),
              static_cast<std::int64_t>(m.swap_summary.misses));
    ASSERT_FALSE(doc["swap"]["events"].asArray().empty());

    // Text rendering mentions the top function and the swap line.
    std::string text = report.text();
    EXPECT_NE(text.find("swap:"), std::string::npos);
    EXPECT_NE(text.find(m.profile.front().name), std::string::npos);
}

TEST(RunReport, TraceOutputIsStreamedThroughTheHarness)
{
    const workloads::Workload *wl = workloads::find("crc");
    std::ostringstream out;
    harness::RunSpec spec;
    spec.workload = wl;
    spec.system = harness::System::SwapRam;
    spec.observe.categories = trace::kCatSwap;
    spec.observe.format = harness::ObserveSpec::Format::Chrome;
    spec.observe.out = &out;
    auto m = harness::runOne(spec);
    ASSERT_TRUE(m.done);
    EXPECT_GT(m.trace_emitted, 0u);

    json::Value doc = json::parse(out.str());
    const json::Array &events = doc["traceEvents"].asArray();
    ASSERT_FALSE(events.empty());
    bool saw_copy = false;
    for (const json::Value &e : events)
        saw_copy |= e["name"].asString() == "copy-in" ||
                    e["cat"].asString() == "swap";
    EXPECT_TRUE(saw_copy);
}

} // namespace
