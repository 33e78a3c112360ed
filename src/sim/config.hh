/**
 * @file
 * Machine configuration: clock frequency (which sets the FRAM wait
 * states), host tiers, and run limits.
 */

#ifndef SWAPRAM_SIM_CONFIG_HH
#define SWAPRAM_SIM_CONFIG_HH

#include <cstdint>

#include "support/platform.hh"

namespace swapram::sim {

/** Configuration of one Machine instance. */
struct MachineConfig {
    /** CPU clock (MCLK). The paper evaluates 8 MHz and 24 MHz. */
    std::uint32_t clock_hz = 24'000'000;

    /** Abort the run after this many total cycles. */
    std::uint64_t max_cycles = 4'000'000'000ull;

    /**
     * The oracle tier's predecode cache: cache decoded instructions by
     * PC and replay only the (fully accounted) bus fetches on a hit.
     * Simulated behaviour and timing are identical either way — tests
     * run both settings differentially; disable to use the always-
     * decode path as the oracle.
     */
    bool predecode_enabled = true;

    /**
     * Host-side fast tier: straight-line blocks from the block cache,
     * lowered once to computed-goto threaded code and dispatched as a
     * chain, with batched accounting and direct-memory data access.
     * A run takes it when both flags hold and no per-step observer is
     * attached (Machine::run); otherwise it takes the oracle tier.
     * Simulated behaviour and timing are identical either way (the
     * chain bails to the oracle at every boundary it cannot prove
     * safe). Tests turn both flags off for the oracle side of a tier
     * twin; perfbench reads both.
     */
    bool superblock_enabled = true;
    bool threaded_enabled = true; ///< see above; perfbench reads it

    /**
     * Periodic timer interrupt, in cycles (0 = disabled). When due and
     * GIE is set, the CPU vectors through platform::kTimerVector
     * (push PC, push SR, clear SR, 6 cycles) — the standard MSP430
     * sequence. Programs enable it with EINT and must install the ISR
     * address at the vector.
     */
    std::uint64_t timer_period_cycles = 0;

    /**
     * Livelock watchdog for intermittent runs: stop the run when this
     * many consecutive boots each end in an already-visited watermark
     * — a failure PC plus FRAM contents (minus registered skip cells)
     * seen at some earlier boot. Forward progress must eventually
     * reach a *new* persistent state; a run orbiting a finite set of
     * states, whether it repeats every boot or cycles with period k,
     * can never finish. 0 (the default) disables the check; bounded
     * plans (max_failures) should leave it off, since their final
     * boot always runs to completion.
     */
    std::uint32_t livelock_boots = 0;

    /**
     * Modelled SRAM size in bytes, starting at platform::kSramBase
     * (capacity-pressure experiments, ISSUE 7: {1,2,4,8} KiB). The
     * region [kSramBase, kSramBase + sram_size) classifies as SRAM;
     * everything between its end and kFramBase is unmapped. The default
     * is the evaluation device's 4 KiB, which reproduces the historical
     * memory map bit-for-bit.
     */
    std::uint32_t sram_size = platform::kSramSize;

    /** One past the last SRAM byte under this configuration. */
    std::uint32_t
    sramEnd() const
    {
        return platform::kSramBase + sram_size;
    }

    /** FRAM wait states from the clock: 0 at or below FRAM's 8 MHz
     *  limit, 3 above it (the paper's §5.4 figure for 24 MHz). */
    std::uint32_t
    effectiveWaitStates() const
    {
        return clock_hz <= platform::kFramMaxHz
                   ? 0
                   : platform::kFramWaitStates24MHz;
    }
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_CONFIG_HH
