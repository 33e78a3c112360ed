/**
 * @file
 * Harness engine tests: deterministic submission-order results at any
 * worker count, per-run error capture, and byte-identical serialized
 * reports between sequential (--jobs 1) and parallel (--jobs 8)
 * execution of the same batch — the property the sweep tool and CI
 * rely on.
 */

#include <gtest/gtest.h>

#include "harness/engine.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "masm/parser.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using harness::Engine;
using harness::RunOutcome;
using harness::RunSpec;
using harness::System;

const workloads::Workload &
workload(const std::string &name)
{
    const workloads::Workload *w = workloads::find(name);
    if (!w)
        support::fatal("test workload missing: ", name);
    return *w;
}

/** A batch mixing systems, a faulted run, and an intentional failure. */
std::vector<RunSpec>
mixedBatch()
{
    std::vector<RunSpec> specs;
    specs.push_back(harness::sweepSpec(workload("crc"), System::Baseline));
    specs.push_back(harness::sweepSpec(workload("crc"), System::SwapRam));
    specs.push_back(
        harness::sweepSpec(workload("bitcount"), System::BlockCache));

    // A power-cycled run: schedule depends only on the spec, so it is
    // as deterministic as a clean run. Bounded so the final boot
    // completes (unbounded 40k budgets would livelock this workload).
    RunSpec faulted =
        harness::sweepSpec(workload("rc4"), System::SwapRam);
    faulted.intermittent.plan = sim::FaultPlan::periodic(40'000, 8);
    specs.push_back(faulted);

    specs.push_back(harness::sweepSpec(workload("aes"), System::SwapRam));
    return specs;
}

/** Serialize a batch the way the sweep tool does: one JSON blob. */
std::string
serialize(const std::vector<RunSpec> &specs,
          const std::vector<RunOutcome> &outcomes)
{
    std::string out;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (outcomes[i].error) {
            out += "error: " + outcomes[i].error_text + "\n";
            continue;
        }
        out += harness::RunReport::make(specs[i], outcomes[i].metrics)
                   .json()
                   .dump(2);
        out += "\n";
    }
    return out;
}

TEST(Engine, ResultsArriveInSubmissionOrder)
{
    std::vector<RunSpec> specs = mixedBatch();
    std::vector<RunOutcome> outcomes = Engine(8).runAll(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error_text;
        // Identity check: result i really is spec i's workload.
        EXPECT_EQ(outcomes[i].metrics.checksum,
                  harness::runOne(specs[i]).checksum)
            << "index " << i;
    }
}

TEST(Engine, SequentialAndParallelBatchesAreByteIdentical)
{
    std::vector<RunSpec> specs = mixedBatch();
    std::vector<RunOutcome> seq = Engine(1).runAll(specs);
    std::vector<RunOutcome> par = Engine(8).runAll(specs);
    // Byte-for-byte on the serialized reports, not just checksums:
    // this is the exact guarantee `sweep --jobs N` gives CI.
    EXPECT_EQ(serialize(specs, seq), serialize(specs, par));
}

TEST(Engine, RepeatedParallelBatchesAreByteIdentical)
{
    std::vector<RunSpec> specs = mixedBatch();
    Engine engine(8);
    std::string first = serialize(specs, engine.runAll(specs));
    std::string second = serialize(specs, engine.runAll(specs));
    EXPECT_EQ(first, second);
}

TEST(Engine, ErrorsAreCapturedPerRunWithoutPoisoningTheBatch)
{
    std::vector<RunSpec> specs;
    specs.push_back(harness::sweepSpec(workload("crc"), System::Baseline));

    RunSpec bad; // null workload: runOne() raises a fatal error
    specs.push_back(bad);

    specs.push_back(
        harness::sweepSpec(workload("bitcount"), System::SwapRam));

    std::vector<RunOutcome> outcomes = Engine(4).runAll(specs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_FALSE(outcomes[1].error_text.empty());
    EXPECT_TRUE(outcomes[2].ok());

    // runAllOrThrow surfaces the first failure by submission order.
    EXPECT_THROW(Engine(4).runAllOrThrow(specs), support::FatalError);
}

/** A Workload keeps the parse its first run made: later runs leave the
 *  same Program in its memo and report the same run. */
TEST(Engine, SecondRunReusesTheWorkloadParse)
{
    for (System system :
         {System::Baseline, System::SwapRam, System::BlockCache}) {
        const workloads::Workload w = workloads::makeCrc();
        const RunSpec spec = harness::sweepSpec(w, system);
        std::vector<RunOutcome> runs = Engine(1).runAll({spec});
        const std::shared_ptr<const masm::Program> kept =
            w.parsed->get(w.source);
        for (RunOutcome &o : Engine(1).runAll({spec, spec}))
            runs.push_back(std::move(o));
        for (const RunOutcome &o : runs)
            ASSERT_TRUE(o.ok()) << o.error_text;
        const harness::Metrics &first = runs[0].metrics;
        const harness::Metrics &second = runs[1].metrics;
        const std::string name = harness::systemName(system);

        EXPECT_EQ(w.parsed->get(w.source), kept) << name;
        EXPECT_EQ(harness::RunReport::make(spec, second).json().dump(2),
                  harness::RunReport::make(spec, first).json().dump(2))
            << name;
        EXPECT_EQ(second.data_snapshot, first.data_snapshot) << name;
        EXPECT_EQ(second.console, first.console) << name;
    }
}

/** Eight runs race to parse one Workload nobody has parsed yet, and the
 *  batch matches a serial one byte for byte (the TSan leg runs this
 *  for the first use of the shared parse). */
TEST(Engine, SharedAstConcurrentFirstUse)
{
    const workloads::Workload serial_w = workloads::makeCrc();
    const std::vector<RunSpec> serial_specs(
        8, harness::sweepSpec(serial_w, System::SwapRam));
    const std::string want =
        serialize(serial_specs, Engine(1).runAll(serial_specs));

    const workloads::Workload w = workloads::makeCrc();
    const std::vector<RunSpec> specs(
        8, harness::sweepSpec(w, System::SwapRam));
    EXPECT_EQ(serialize(specs, Engine(4).runAll(specs)), want);
}

TEST(Engine, JobCountDefaultsAndClamps)
{
    EXPECT_GE(Engine::defaultJobs(), 1u);
    EXPECT_EQ(Engine(0).jobs(), Engine::defaultJobs());
    EXPECT_EQ(Engine(3).jobs(), 3u);
    EXPECT_TRUE(Engine(16).runAll({}).empty());
}

} // namespace
