#include "sim/energy.hh"

namespace swapram::sim {

double
EnergyModel::corePjPerCycle(std::uint32_t clock_hz) const
{
    // Linear in frequency between the two calibrated points, clamped.
    const double f8 = 8e6;
    const double f24 = 24e6;
    double f = static_cast<double>(clock_hz);
    if (f <= f8)
        return core_pj_per_cycle_8mhz;
    if (f >= f24)
        return core_pj_per_cycle_24mhz;
    double t = (f - f8) / (f24 - f8);
    return core_pj_per_cycle_8mhz +
           t * (core_pj_per_cycle_24mhz - core_pj_per_cycle_8mhz);
}

double
EnergyModel::totalPj(const SimStats &stats, std::uint32_t clock_hz) const
{
    double core = corePjPerCycle(clock_hz) *
                  static_cast<double>(stats.totalCycles());
    double fram =
        fram_read_pj *
            static_cast<double>(stats.fram.fetch + stats.fram.read) +
        fram_write_pj * static_cast<double>(stats.fram.write);
    double sram =
        sram_read_pj *
            static_cast<double>(stats.sram.fetch + stats.sram.read) +
        sram_write_pj * static_cast<double>(stats.sram.write);
    return core + fram + sram;
}

} // namespace swapram::sim
