/**
 * @file
 * Timing model of the FRAM controller's hardware read cache
 * (MSP430FR2355: 2-way set associative, four 8-byte lines). The cache
 * stores tags only — data always comes from the flat memory array — so
 * it influences stall cycles and hit/miss statistics, never values.
 */

#ifndef SWAPRAM_SIM_HW_CACHE_HH
#define SWAPRAM_SIM_HW_CACHE_HH

#include <array>
#include <cstdint>

#include "support/platform.hh"

namespace swapram::sim {

/**
 * Tag-only model of the 2-way FRAM read cache. Each set holds its two
 * tags in recency order, so a lookup is at most two compares and a
 * rotate.
 */
class HwCache
{
  public:
    HwCache() { reset(); }

    /** Invalidate every line. */
    void reset();

    /**
     * Look up the line containing @p addr, filling it on a miss.
     * @return true on hit.
     *
     * A hit on the most recent tag changes nothing. Otherwise the tag
     * becomes the most recent and the old most recent one becomes the
     * least recent; that is the hit path for the least recent tag and
     * the fill path (evicting it) for a miss alike.
     *
     * Always inlined: this sits on the per-access hot path of both the
     * bus and the threaded fast path, where GCC's size budget would
     * otherwise leave it a call (one that spills the dispatch loop's
     * registers at every fetch probe).
     */
    inline __attribute__((always_inline)) bool
    access(std::uint16_t addr)
    {
        std::uint32_t line = addr >> kLineShift;
        Set &set = sets_[line % kSets];
        auto tag = static_cast<std::uint16_t>(line / kSets);
        if (set.mru == tag)
            return true;
        std::uint16_t old = set.lru;
        set.lru = set.mru;
        set.mru = tag;
        return old == tag;
    }

    /** True if the line containing @p addr is present (no state change). */
    bool probe(std::uint16_t addr) const;

  private:
    static constexpr int kSets = platform::kHwCacheSets;
    static constexpr int kWays = platform::kHwCacheWays;
    static constexpr int kLineShift = 3; // 8-byte lines
    static_assert(kWays == 2, "a set keeps exactly an mru and an lru tag");
    static_assert(kSets > 0 && (kSets & (kSets - 1)) == 0,
                  "the set index is the line's low bits");

    /** Marks an empty way; no tag reaches it (the largest is 0xFFF). */
    static constexpr std::uint16_t kInvalid = 0xFFFF;
    static_assert((0xFFFFu >> kLineShift) / kSets < kInvalid);

    struct Set {
        std::uint16_t mru = kInvalid; ///< most recently used tag
        std::uint16_t lru = kInvalid; ///< the tag a miss replaces
    };

    std::array<Set, kSets> sets_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_HW_CACHE_HH
