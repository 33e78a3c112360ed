/**
 * @file
 * The FRAM cost model (paper §2.2/§5.4), written once.
 *
 * Every simulated cycle count rests on three rules, shared by the bus
 * (the single-step oracle), the block builder's fetch precompute, and
 * the threaded tier's static folding and dynamic data paths:
 *   - line contention: the second and later FRAM accesses of one
 *     instruction contend when they touch a different 8-byte line than
 *     the access before them (the cache controller bottleneck the
 *     paper observes even at 8 MHz);
 *   - the stall: a read that hits the hardware cache pays only the
 *     contention; a miss or a write pays max(wait states, contention),
 *     since the miss's wait states already serialize it against the
 *     earlier access;
 *   - code/data classification: an access is a code-space access when
 *     its address lies in the .text range (Table 1).
 * The wait states come from the clock (MachineConfig::
 * effectiveWaitStates); the contention stall is a constant here.
 */

#ifndef SWAPRAM_SIM_FRAM_TIMING_HH
#define SWAPRAM_SIM_FRAM_TIMING_HH

#include <algorithm>
#include <cstdint>

namespace swapram::sim::fram {

/**
 * Stall of a contending FRAM access: the second and later accesses of
 * one instruction that change line, modelling the cache-contention
 * bottleneck the paper observes even at 8 MHz (Figure 1: "a single
 * instruction execution can dispatch multiple simultaneous accesses
 * to distant addresses in FRAM, bottlenecking memory accesses at the
 * cache").
 */
inline constexpr std::uint32_t kContentionStall = 2;

/** The 8-byte FRAM line holding @p addr. */
constexpr std::uint32_t
lineOf(std::uint16_t addr)
{
    return addr >> 3;
}

/** One instruction's chain of FRAM accesses, for line contention. */
struct LineChain {
    std::uint32_t count = 0;     ///< FRAM accesses so far
    std::uint32_t last_line = 0; ///< 8-byte line of the latest one

    /** Record the next FRAM access; true when it contends. */
    bool
    next(std::uint16_t addr)
    {
        std::uint32_t line = lineOf(addr);
        bool contends = count > 0 && line != last_line;
        last_line = line;
        ++count;
        return contends;
    }
};

/** Stall cycles of one FRAM access: @p cached is a hardware-cache read
 *  hit; @p contention is the contention stall it owes (0 if none). */
constexpr std::uint32_t
accessStall(bool cached, std::uint32_t wait_states,
            std::uint32_t contention)
{
    return cached ? contention : std::max(wait_states, contention);
}

/** True when @p addr lies in the code range [@p base, @p end). */
constexpr bool
inCode(std::uint16_t addr, std::uint16_t base, std::uint32_t end)
{
    return addr >= base && static_cast<std::uint32_t>(addr) < end;
}

} // namespace swapram::sim::fram

#endif // SWAPRAM_SIM_FRAM_TIMING_HH
