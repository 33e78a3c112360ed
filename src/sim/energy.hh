/**
 * @file
 * Energy model for the FRAM platform.
 *
 * The paper measures current through a sense resistor on a real
 * MSP430FR2355; we substitute a linear model: core energy per cycle
 * (frequency-dependent — 24 MHz is the device's most efficient operating
 * point, §5.4) plus per-access energies for FRAM and SRAM. Units are
 * picojoules; the constants are calibrated so the *relative* results
 * (who wins, by roughly what factor) match the paper's Figures 1/9/10.
 * EXPERIMENTS.md documents the calibration.
 */

#ifndef SWAPRAM_SIM_ENERGY_HH
#define SWAPRAM_SIM_ENERGY_HH

#include <cstdint>

#include "sim/stats.hh"

namespace swapram::sim {

/** Linear energy model, all values in picojoules. */
struct EnergyModel {
    /** Core energy per cycle at 8 MHz (less efficient per cycle). */
    double core_pj_per_cycle_8mhz = 110.0;
    /** Core energy per cycle at 24 MHz (the efficient operating point). */
    double core_pj_per_cycle_24mhz = 80.0;

    double fram_read_pj = 55.0;  ///< per FRAM read/fetch access
    double fram_write_pj = 65.0; ///< per FRAM write access
    double sram_read_pj = 10.0;  ///< per SRAM read/fetch access
    double sram_write_pj = 12.0; ///< per SRAM write access

    /** Core energy per cycle at @p clock_hz (linear interpolation). */
    double corePjPerCycle(std::uint32_t clock_hz) const;

    /** Total energy of a run, in picojoules. */
    double totalPj(const SimStats &stats, std::uint32_t clock_hz) const;

    /** Run time in seconds at @p clock_hz. */
    static double
    seconds(const SimStats &stats, std::uint32_t clock_hz)
    {
        return static_cast<double>(stats.totalCycles()) / clock_hz;
    }
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_ENERGY_HH
