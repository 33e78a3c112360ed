#include "sim/fault.hh"

#include <algorithm>

#include "support/logging.hh"

namespace swapram::sim {

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
    switch (plan_.kind) {
      case FaultPlan::Kind::None:
        break;
      case FaultPlan::Kind::Once:
        next_ = plan_.first_cycle;
        break;
      case FaultPlan::Kind::Periodic:
        if (plan_.period == 0)
            support::fatal("FaultPlan: periodic plan needs a period");
        next_ = plan_.first_cycle ? plan_.first_cycle : plan_.period;
        break;
      case FaultPlan::Kind::Random:
        if (plan_.max_gap < plan_.min_gap || plan_.max_gap == 0)
            support::fatal("FaultPlan: bad random gap bounds");
        next_ = gap();
        break;
      case FaultPlan::Kind::Trace: {
        if (!plan_.trace || plan_.trace->empty())
            support::fatal("FaultPlan: trace plan needs a harvest trace");
        const CapacitorModel &cap = plan_.capacitor;
        if (cap.capacity_pj <= 0 || cap.power_on_pj > cap.capacity_pj)
            support::fatal("FaultPlan: capacitor power-on threshold "
                           "must fit the capacity");
        if (cap.brown_out_pj >= cap.power_on_pj)
            support::fatal("FaultPlan: brown-out threshold must be "
                           "below the power-on threshold (a boot would "
                           "brown out before it starts)");
        if (cap.leak_watts < 0)
            support::fatal("FaultPlan: negative capacitor leakage");
        break;
      }
    }
}

void
FaultInjector::bindEnergy(const SimStats *stats, const EnergyModel &model,
                          std::uint32_t clock_hz)
{
    if (plan_.kind != FaultPlan::Kind::Trace)
        return;
    stats_ = stats;
    energy_ = model;
    clock_hz_ = clock_hz;
    // Worst-case discharge per cycle: core energy plus one access of
    // every kind plus leakage. Deliberately paranoid (no instruction
    // makes an access of every kind in a single cycle) — it only has
    // to be an upper bound so nextFailureCycle() never overshoots the
    // true brown-out.
    worst_pj_per_cycle_ = model.corePjPerCycle(clock_hz) +
                          model.fram_read_pj + model.fram_write_pj +
                          model.sram_read_pj + model.sram_write_pj +
                          plan_.capacitor.leak_watts / clock_hz * 1e12;
    boot_wall_s_ = 0;
    boot_stored_pj_ = std::min(plan_.capacitor.startPj(),
                               plan_.capacitor.capacity_pj);
    boot_consumed_pj_ = consumedPj();
    next_ = 0; // recomputed by the first shouldFail()
}

std::uint64_t
FaultInjector::gap()
{
    std::uint64_t span = plan_.max_gap - plan_.min_gap + 1;
    if (span > UINT32_MAX)
        span = UINT32_MAX;
    std::uint64_t g =
        plan_.min_gap + rng_.below(static_cast<std::uint32_t>(span));
    // A zero-cycle uptime would power-cycle at the same cycle forever:
    // the counter never advances, so the run cannot even time out.
    return std::max<std::uint64_t>(g, 1);
}

double
FaultInjector::consumedPj() const
{
    return energy_.totalPj(*stats_, clock_hz_);
}

double
FaultInjector::wallSeconds(std::uint64_t now_cycles) const
{
    return static_cast<double>(now_cycles) / clock_hz_ + off_seconds_;
}

double
FaultInjector::harvestedPj(std::uint64_t now_cycles) const
{
    if (plan_.kind != FaultPlan::Kind::Trace || !stats_)
        return 0;
    return plan_.trace->energyPj(wallSeconds(now_cycles));
}

double
FaultInjector::storedPj(std::uint64_t now_cycles) const
{
    // Pure function of (Stats, wall time): level at boot, plus harvest
    // inflow since boot, minus compute energy and leakage since boot.
    // Deliberately NOT clamped at capacity while powered — a clamp
    // would make the value depend on when it was evaluated, and block
    // dispatch evaluates it only at block boundaries. Consumption
    // steps only at instruction boundaries and inflow is monotonic, so
    // the brown-out instruction is identical either way.
    double wall = wallSeconds(now_cycles);
    double inflow = plan_.trace->energyPj(wall) -
                    plan_.trace->energyPj(boot_wall_s_);
    double leak = plan_.capacitor.leak_watts * (wall - boot_wall_s_) * 1e12;
    return boot_stored_pj_ + inflow - (consumedPj() - boot_consumed_pj_) -
           leak;
}

std::uint16_t
FaultInjector::levelWord(std::uint64_t now_cycles) const
{
    if (plan_.kind != FaultPlan::Kind::Trace || !stats_)
        return 0xFFFF; // mains powered: always full
    double frac = storedPj(now_cycles) / plan_.capacitor.capacity_pj;
    frac = std::clamp(frac, 0.0, 1.0);
    return static_cast<std::uint16_t>(frac * 0xFFFF);
}

bool
FaultInjector::traceShouldFail(std::uint64_t now_cycles)
{
    if (!stats_) {
        support::fatal("FaultInjector: Trace plan used without "
                       "bindEnergy()");
    }
    if (exhausted_)
        return false; // the caller already stopped the run
    const CapacitorModel &cap = plan_.capacitor;
    double stored = storedPj(now_cycles);
    if (stored > cap.brown_out_pj) {
        // Safe dispatch horizon: even at worst-case drain (and with
        // all harvest inflow ignored) the capacitor stays above the
        // brown-out threshold until next_.
        double margin = (stored - cap.brown_out_pj) / worst_pj_per_cycle_;
        std::uint64_t cycles =
            margin >= 1e18 ? UINT64_MAX - now_cycles
                           : static_cast<std::uint64_t>(margin);
        next_ = now_cycles + std::max<std::uint64_t>(cycles, 1);
        return false;
    }

    // Brown-out. Power stays off while the capacitor recharges from
    // the trace; the walk is closed-form, so off-time costs nothing to
    // simulate and the whole schedule stays deterministic.
    ++failures_;
    double wall = wallSeconds(now_cycles);
    RechargeResult r =
        rechargeTime(*plan_.trace, cap, std::max(stored, 0.0), wall);
    if (!r.reachable) {
        exhausted_ = true;
        next_ = UINT64_MAX;
        return true;
    }
    off_seconds_ += r.seconds;
    boot_wall_s_ = wall + r.seconds;
    boot_stored_pj_ = cap.power_on_pj;
    boot_consumed_pj_ = consumedPj();
    next_ = now_cycles; // recomputed on the next shouldFail()
    return true;
}

bool
FaultInjector::shouldFail(std::uint64_t now_cycles)
{
    if (plan_.kind == FaultPlan::Kind::Trace)
        return traceShouldFail(now_cycles);
    if (next_ == UINT64_MAX || now_cycles < next_)
        return false;
    ++failures_;
    if (plan_.max_failures && failures_ >= plan_.max_failures) {
        next_ = UINT64_MAX;
        return true;
    }
    switch (plan_.kind) {
      case FaultPlan::Kind::Once:
        next_ = UINT64_MAX;
        break;
      case FaultPlan::Kind::Periodic:
        // Each boot gets `period` cycles of uptime, measured from the
        // reboot point rather than the absolute cycle grid.
        next_ = now_cycles + plan_.period;
        break;
      case FaultPlan::Kind::Random:
        next_ = now_cycles + gap();
        break;
      case FaultPlan::Kind::None:
      case FaultPlan::Kind::Trace:
        next_ = UINT64_MAX;
        break;
    }
    return true;
}

} // namespace swapram::sim
