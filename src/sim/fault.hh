/**
 * @file
 * Power-failure fault injection for intermittent-execution testing.
 *
 * A FaultPlan describes *when* power is lost (a fixed cycle, a fixed
 * period per boot, seeded-random gaps, or — the realistic case — a
 * harvest-trace-driven capacitor model whose brown-outs are a
 * consequence of energy); a FaultInjector walks the plan against the
 * machine's cycle counter and tells Machine::run() when to
 * power-cycle. What a power loss *does* — zero SRAM, reset the CPU and
 * volatile devices, preserve FRAM byte-for-byte, re-run the crt0-style
 * data initialisation — lives in Machine::powerCycle().
 */

#ifndef SWAPRAM_SIM_FAULT_HH
#define SWAPRAM_SIM_FAULT_HH

#include <cstdint>
#include <memory>

#include "sim/energy.hh"
#include "sim/harvest.hh"
#include "support/rng.hh"

namespace swapram::sim {

/** When power is lost during a run. */
struct FaultPlan {
    enum class Kind : std::uint8_t {
        None,     ///< never fail (the default)
        Once,     ///< fail exactly once at `first_cycle`
        Periodic, ///< fail every `period` cycles of uptime per boot
        Random,   ///< seeded-random uptime gaps in [min_gap, max_gap]
        Trace,    ///< capacitor charged from a harvest trace browns out
    };

    Kind kind = Kind::None;

    /** Once: the failure cycle. Periodic: first boot's uptime budget
     *  (0 = use `period`). */
    std::uint64_t first_cycle = 0;

    /** Periodic: cycles of uptime each boot gets before power dies. */
    std::uint64_t period = 0;

    /** Random: inclusive bounds on each boot's uptime. A drawn gap is
     *  clamped to >= 1 cycle — a zero-uptime boot would reboot at the
     *  same cycle forever (the counter never advances past the
     *  failure, so not even max_cycles can end the run). */
    std::uint64_t min_gap = 0;
    std::uint64_t max_gap = 0;

    /** Random: RNG seed for the gap sequence. */
    std::uint32_t seed = 1;

    /** Stop injecting after this many failures (0 = unbounded). A
     *  bounded plan guarantees the final boot runs to completion. */
    std::uint64_t max_failures = 0;

    /** Trace: the harvesting profile (shared so plans stay cheap to
     *  copy across engine workers) and the storage element. */
    std::shared_ptr<const HarvestTrace> trace;
    CapacitorModel capacitor;

    bool enabled() const { return kind != Kind::None; }

    static FaultPlan
    once(std::uint64_t cycle)
    {
        FaultPlan p;
        p.kind = Kind::Once;
        p.first_cycle = cycle;
        p.max_failures = 1;
        return p;
    }

    static FaultPlan
    periodic(std::uint64_t period, std::uint64_t max_failures = 0)
    {
        FaultPlan p;
        p.kind = Kind::Periodic;
        p.period = period;
        p.max_failures = max_failures;
        return p;
    }

    static FaultPlan
    random(std::uint64_t min_gap, std::uint64_t max_gap,
           std::uint32_t seed, std::uint64_t max_failures = 0)
    {
        FaultPlan p;
        p.kind = Kind::Random;
        p.min_gap = min_gap;
        p.max_gap = max_gap;
        p.seed = seed;
        p.max_failures = max_failures;
        return p;
    }

    static FaultPlan
    harvest(std::shared_ptr<const HarvestTrace> trace,
            CapacitorModel capacitor = {})
    {
        FaultPlan p;
        p.kind = Kind::Trace;
        p.trace = std::move(trace);
        p.capacitor = capacitor;
        return p;
    }
};

/** Walks a FaultPlan against total-cycle time. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /**
     * Bind a Trace plan to the machine it gates: stored energy is a
     * pure function of the (monotonic) Stats counters and the harvest
     * trace, so the injector needs the stats it discharges against.
     * @p stats must outlive the injector and belong to the machine
     * whose run loop calls shouldFail().
     */
    void bindEnergy(const SimStats *stats, const EnergyModel &model,
                    std::uint32_t clock_hz);

    /**
     * True exactly when a scheduled power loss is due at @p now_cycles
     * (total cycles since the original power-on). A true return
     * consumes the event and schedules the next one; for Trace plans
     * it also advances wall time across the off-period recharge.
     */
    bool shouldFail(std::uint64_t now_cycles);

    /** Failures injected so far. */
    std::uint64_t failures() const { return failures_; }

    /**
     * Next scheduled failure cycle (UINT64_MAX = none pending). For
     * Trace plans this is a conservative lower bound on the true
     * brown-out cycle — recomputed by every shouldFail() from the
     * worst-case energy per cycle, ignoring harvest inflow — so block
     * dispatch clamped to it can never skip past a failure.
     */
    std::uint64_t nextFailureCycle() const { return next_; }

    /** Trace: harvest can never recharge the capacitor to the
     *  power-on threshold again; the run must stop. */
    bool exhausted() const { return exhausted_; }

    /** Trace: energy delivered by the harvester over the run so far,
     *  in picojoules (0 for other kinds). */
    double harvestedPj(std::uint64_t now_cycles) const;

    /** Trace: stored energy at @p now_cycles, in picojoules. */
    double storedPj(std::uint64_t now_cycles) const;

    /** Capacitor level scaled to 0..0xFFFF of capacity for the MMIO
     *  energy register; 0xFFFF ("mains powered") for non-Trace
     *  plans. */
    std::uint16_t levelWord(std::uint64_t now_cycles) const;

    /** Trace: accumulated powered-off (recharge) wall time. */
    double offSeconds() const { return off_seconds_; }

    /** Trace: wall-clock seconds at @p now_cycles (on-time from the
     *  cycle counter plus accumulated off-time). */
    double wallSeconds(std::uint64_t now_cycles) const;

  private:
    std::uint64_t gap();
    bool traceShouldFail(std::uint64_t now_cycles);
    double consumedPj() const;

    FaultPlan plan_;
    support::Rng rng_;
    std::uint64_t next_ = UINT64_MAX;
    std::uint64_t failures_ = 0;

    // Trace-plan state (see bindEnergy).
    const SimStats *stats_ = nullptr;
    EnergyModel energy_;
    std::uint32_t clock_hz_ = 0;
    double worst_pj_per_cycle_ = 0;
    double off_seconds_ = 0;
    double boot_wall_s_ = 0;
    double boot_stored_pj_ = 0;
    double boot_consumed_pj_ = 0;
    bool exhausted_ = false;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_FAULT_HH
