/**
 * @file
 * SwapRAM build options: cache region, replacement structure, and the
 * function blacklist (§3.1: exclude functions with strict timing
 * requirements or known-infrequent execution).
 */

#ifndef SWAPRAM_SWAPRAM_OPTIONS_HH
#define SWAPRAM_SWAPRAM_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/options.hh"
#include "support/platform.hh"

namespace swapram::cache {

/** Cache-memory structure, which fixes the replacement policy (§3.4). */
enum class Policy : std::uint8_t {
    /** Circular queue: least-recently-cached replacement (the paper's
     *  proof-of-concept design). */
    CircularQueue,
    /** Stack: most-recently-cached replacement (the counterproductive
     *  alternative §3.4 discusses; kept for the paper's replacement
     *  ablation). */
    Stack,
};

/** Options for one SwapRAM build. */
struct Options {
    /** First byte of the SRAM region used as the code cache. */
    std::uint16_t cache_base = platform::kSramBase;
    /** One past the last byte of the cache region. */
    std::uint16_t cache_end =
        static_cast<std::uint16_t>(platform::kSramEnd);

    Policy policy = Policy::CircularQueue;

    /** Functions never instrumented or cached. */
    std::vector<std::string> blacklist;

    /**
     * Thrash mitigation (the extension §5.4 proposes as future work):
     * after this many consecutive aborted caching attempts (a miss
     * that would have to evict an *active* function), the runtime
     * "freezes" the cache for `freeze_window` misses — frozen misses
     * run from NVM immediately, skipping the eviction scans, so a
     * pathological caller/callee pair stops paying the full handler on
     * every call. 0 disables the feature (the paper's baseline
     * behaviour).
     */
    int freeze_threshold = 0;
    /** Misses served from NVM per freeze episode. */
    int freeze_window = 32;

    /**
     * Generate the __swp_recover boot routine and have the startup
     * stub call it before main. Required for crash consistency under
     * power loss: the redirect/relocation cells persist in FRAM while
     * the SRAM copies they point into decay. Disable only to
     * demonstrate the stale-redirection crash (regression tests).
     */
    bool boot_recovery = true;

    /**
     * Eviction under capacity pressure (ISSUE 7). When a miss's
     * placement scan finds the candidate range blocked by an *active*
     * function, the pre-eviction runtime served the miss from NVM and
     * — because the blocker stays resident and active — kept serving
     * every later miss from NVM ("silent stop caching"). With eviction
     * enabled the handler instead retries the scan with the candidate
     * bumped past the blocker (second chance over the redirect cells,
     * wrapping at the cache end), un-redirecting inactive victims as
     * usual, until a bounded retry budget is spent. Disabling this
     * reproduces the pre-eviction runtime byte for byte.
     */
    bool evict = true;

    /**
     * Data-side SwapRAM pool in bytes (0 = off), carved from the top
     * of the cache region: the code cache shrinks to
     * [cache_base, cache_end - data_pool_bytes). The pool is managed
     * as 16 slots by a bitmap word; __swp_din/__swp_dout swap large
     * buffers between their FRAM homes and the pool through the same
     * simulated memcpy path code swaps pay for. Must be a multiple of
     * 32 so slot sizes stay word-aligned.
     */
    std::uint16_t data_pool_bytes = 0;

    /**
     * Crash-atomic checkpointing (ISSUE 8): scheme None reproduces the
     * pre-checkpoint runtime byte for byte; Periodic/OnLowEnergy
     * generate __ckpt_commit/__ckpt_restore and hook the miss handler.
     * Requires the stack (and everything else a resume needs) inside
     * [kSramBase, ckpt.sram_end) — the runner enforces this.
     */
    ckpt::Options ckpt;

    /** Code-cache size (the pool, when configured, is carved out). */
    std::uint16_t cacheSize() const
    {
        return static_cast<std::uint16_t>(cache_end - cache_base -
                                          data_pool_bytes);
    }

    /** First byte of the data pool (== codeCacheEnd()). */
    std::uint16_t poolBase() const
    {
        return static_cast<std::uint16_t>(cache_end - data_pool_bytes);
    }

    bool
    isBlacklisted(const std::string &name) const
    {
        for (const std::string &b : blacklist) {
            if (b == name)
                return true;
        }
        return false;
    }
};

} // namespace swapram::cache

#endif // SWAPRAM_SWAPRAM_OPTIONS_HH
