/**
 * @file
 * Benchmark workloads: the cells each workload runs, built from freshly
 * constructed inputs, and the per-run correctness digest.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace perfbench {

/** One pinned row of tests/golden/expectations.json. */
struct Golden {
    std::uint16_t checksum = 0;
    std::uint64_t total_cycles = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t swap_ins = 0;
    std::uint64_t evictions = 0;
};

/** One experiment the workload runs once per round. */
struct Cell {
    std::string name; ///< "crc/swapram@4096"
    swapram::harness::RunSpec spec;
    /** Sweep cells are checked against the golden row; every other
     *  cell against its single-step-oracle twin. */
    bool has_golden = false;
    Golden golden;
};

/** Everything the runs need, built from scratch. */
struct Inputs {
    /** Owned workloads (a deque keeps RunSpec pointers stable). */
    std::deque<swapram::workloads::Workload> workloads;
    std::vector<Cell> cells;
};

/** Benchmark workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build the inputs of @p workload: construct its benchmark programs
 * (each computes its golden model natively), read the golden rows
 * (sweep only, from @p golden_path), and make one cell per experiment.
 * fatal()s on an unknown workload or a sweep cell without a golden row.
 * The helper library is not an input: runOne() rebuilds its source in
 * every run.
 */
Inputs prepare(const std::string &workload, const std::string &golden_path);

/** Simulated statistics: everything the modelled hardware defines. */
std::vector<std::uint64_t> simulatedFields(const swapram::sim::Stats &s);

/** Host-side fast-path counters (predecode, superblock, threaded). */
std::vector<std::uint64_t> hostFields(const swapram::sim::Stats &s);

/** What must repeat exactly across runs of one cell. */
struct Digest {
    std::uint16_t checksum = 0;
    std::vector<std::uint8_t> snapshot; ///< final .data + .bss
    std::vector<std::uint64_t> simulated;
    std::uint64_t swap_ins = 0;  ///< timeline copy-ins (0 unobserved)
    std::uint64_t evictions = 0; ///< timeline evictions (0 unobserved)

    bool operator==(const Digest &) const = default;

    /** Same program outcome: checksum, memory and simulated Stats
     *  (the swap counts exist only when a timeline was attached). */
    bool
    sameOutcome(const Digest &o) const
    {
        return checksum == o.checksum && snapshot == o.snapshot &&
               simulated == o.simulated;
    }
};

Digest digestOf(const swapram::harness::Metrics &m);

/**
 * Why a run is wrong on its own ("" when it is not): it did not fit,
 * did not finish, or differs from the cell's golden row.
 */
std::string checkRun(const swapram::harness::Metrics &m, const Cell &cell);

/** The cell's single-step-oracle twin: every host fast path off and
 *  nothing observed, so it also checks that watching a run does not
 *  change it. */
swapram::harness::RunSpec oracleTwin(const swapram::harness::RunSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
