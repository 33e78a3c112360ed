/**
 * @file
 * Execution statistics collected by the machine model: instruction and
 * cycle counts, per-region access counts, hardware-cache behaviour, and
 * the classifications the paper's evaluation is built on (code vs data
 * space accesses for Table 1; instruction attribution by code owner for
 * Figure 8; FRAM accesses and unstalled cycles for Table 2), kept
 * apart from the host-side counters of the tier that ran the program.
 */

#ifndef SWAPRAM_SIM_STATS_HH
#define SWAPRAM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace swapram::sim {

/** Who "owns" the code an instruction was fetched from (Figure 8). */
enum class CodeOwner : std::uint8_t {
    AppFram = 0, ///< application code executing from FRAM
    AppSram = 1, ///< application code executing from SRAM (cached)
    Handler = 2, ///< cache-runtime code (miss handler, entry stubs)
    Memcpy = 3,  ///< the runtime's copy loop
};
inline constexpr int kNumOwners = 4;

/** Human-readable owner name. */
std::string ownerName(CodeOwner owner);

/** Fetch/read/write counters for one memory region. */
struct AccessCounts {
    std::uint64_t fetch = 0;
    std::uint64_t read = 0;
    std::uint64_t write = 0;

    std::uint64_t total() const { return fetch + read + write; }
    bool operator==(const AccessCounts &) const = default;
};

/**
 * What the modelled hardware did in one run: every counter the paper's
 * numbers are computed from. The host tier that ran the program never
 * moves any of them, so tier twins compare the whole struct with ==.
 */
struct SimStats {
    std::uint64_t instructions = 0;
    /** Unstalled CPU cycles (Table 2's "CPU Cycles"). */
    std::uint64_t base_cycles = 0;
    /** FRAM wait-state and contention stalls. */
    std::uint64_t stall_cycles = 0;

    AccessCounts sram, fram, mmio;
    std::uint64_t fram_cache_hits = 0;
    std::uint64_t fram_cache_misses = 0;

    /** Accesses whose target address lies in the .text range. */
    std::uint64_t code_space_accesses = 0;
    /** Accesses to any non-text, non-MMIO address. */
    std::uint64_t data_space_accesses = 0;

    std::array<std::uint64_t, kNumOwners> instr_by_owner{};

    /** Timer interrupts serviced. */
    std::uint64_t interrupts = 0;

    /** Power failures injected (each one is a reboot). */
    std::uint64_t reboots = 0;
    /** Cycles spent inside the registered boot-recovery routine. */
    std::uint64_t recovery_cycles = 0;

    std::uint64_t totalCycles() const { return base_cycles + stall_cycles; }
    std::uint64_t framAccesses() const { return fram.total(); }
    bool operator==(const SimStats &) const = default;
};

/** Every counter on one line (also gtest's printer for SimStats). */
std::ostream &operator<<(std::ostream &os, const SimStats &s);

/**
 * Host-side counters of the decode caches and the threaded tier. They
 * never feed back into simulated timing, and they differ by tier by
 * design, so no twin compares them.
 */
struct TierCounters {
    /** Predecode cache. Only oracle-tier runs have the cache; there
     *  invalidations count every bus write. */
    std::uint64_t predecode_hits = 0;
    std::uint64_t predecode_misses = 0;
    std::uint64_t predecode_invalidations = 0;

    /** Block cache. */
    std::uint64_t superblock_blocks_built = 0; ///< non-empty builds
    /** Cached block found stale (write generations moved) and rebuilt. */
    std::uint64_t superblock_invalidations = 0;

    /** Threaded dispatcher. */
    std::uint64_t threaded_blocks_lowered = 0; ///< blocks lowered
    std::uint64_t threaded_dispatches = 0;     ///< blocks executed
    std::uint64_t threaded_instructions = 0;   ///< retired threaded
    /** Mid-block stop: an operand resolved to MMIO/unmapped, so the
     *  instruction was handed to the single-step oracle untouched. */
    std::uint64_t threaded_bail_operand = 0;
    /** Mid-block stop: a store hit the executing block's own code. */
    std::uint64_t threaded_bail_smc = 0;
    /** Dispatch refused: the block's worst-case cycle bound could cross
     *  a fault/timer/max-cycle boundary (single-step until past it). */
    std::uint64_t threaded_bail_boundary = 0;

    // Counters of the retired block-stepped dispatcher: nothing writes
    // them, they always read 0. perfbench still reads each one.
    std::uint64_t superblock_dispatches = 0;    ///< perfbench reads it
    std::uint64_t superblock_instructions = 0;  ///< perfbench reads it
    std::uint64_t superblock_bail_operand = 0;  ///< perfbench reads it
    std::uint64_t superblock_bail_smc = 0;      ///< perfbench reads it
    std::uint64_t superblock_bail_boundary = 0; ///< perfbench reads it
};

/**
 * All counters the Machine keeps for one run. Not comparable: a twin
 * compares simulated(), so the host counters cannot slip into it.
 */
struct Stats : SimStats, TierCounters {
    bool operator==(const Stats &) const = delete;
    const SimStats &simulated() const { return *this; }
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_STATS_HH
