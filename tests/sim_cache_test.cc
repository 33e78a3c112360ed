/**
 * @file
 * Hardware FRAM read-cache model tests: geometry, LRU, and the stall /
 * contention accounting the Figure-1 experiment depends on.
 */

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "sim/hw_cache.hh"
#include "support/platform.hh"
#include "testutil.hh"

namespace {

using namespace swapram;
using sim::HwCache;

TEST(HwCache, LineGranularity)
{
    HwCache cache;
    EXPECT_FALSE(cache.access(0x8000));
    // Same 8-byte line: hits.
    EXPECT_TRUE(cache.access(0x8002));
    EXPECT_TRUE(cache.access(0x8006));
    // Next line: miss.
    EXPECT_FALSE(cache.access(0x8008));
}

TEST(HwCache, TwoWayTwoSets)
{
    HwCache cache;
    // Lines 0x8000 and 0x8010 map to set 0; 0x8008 maps to set 1.
    EXPECT_FALSE(cache.access(0x8000));
    EXPECT_FALSE(cache.access(0x8010));
    EXPECT_TRUE(cache.access(0x8000)); // both fit (2 ways)
    EXPECT_TRUE(cache.access(0x8010));
    // Third distinct line in set 0 evicts the LRU (0x8000).
    EXPECT_FALSE(cache.access(0x8020));
    EXPECT_FALSE(cache.access(0x8000));
    // Set 1 unaffected.
    EXPECT_FALSE(cache.access(0x8008));
    EXPECT_TRUE(cache.access(0x8008));
}

TEST(HwCache, ProbeDoesNotFill)
{
    HwCache cache;
    EXPECT_FALSE(cache.probe(0x9000));
    EXPECT_FALSE(cache.access(0x9000));
    EXPECT_TRUE(cache.probe(0x9000));
}

TEST(HwCache, ResetInvalidates)
{
    HwCache cache;
    cache.access(0x8000);
    cache.reset();
    EXPECT_FALSE(cache.probe(0x8000));
}

/** The cache as first modelled: per-way valid bits and tags plus an
 *  LRU way pointer per set. HwCache must behave exactly like it. */
class ReferenceLru
{
  public:
    void
    reset()
    {
        sets_ = {};
    }

    bool
    access(std::uint16_t addr)
    {
        std::uint32_t line = addr >> 3;
        Set &set = sets_[line & 1];
        std::uint32_t tag = line >> 1;
        for (int w = 0; w < 2; ++w) {
            if (set.ways[w].valid && set.ways[w].tag == tag) {
                set.lru = static_cast<std::uint8_t>(1 - w);
                return true;
            }
        }
        Way &victim = set.ways[set.lru];
        victim.valid = true;
        victim.tag = tag;
        set.lru = static_cast<std::uint8_t>(1 - set.lru);
        return false;
    }

    bool
    probe(std::uint16_t addr) const
    {
        std::uint32_t line = addr >> 3;
        const Set &set = sets_[line & 1];
        std::uint32_t tag = line >> 1;
        for (const Way &way : set.ways) {
            if (way.valid && way.tag == tag)
                return true;
        }
        return false;
    }

  private:
    struct Way {
        bool valid = false;
        std::uint32_t tag = 0;
    };
    struct Set {
        std::array<Way, 2> ways{};
        std::uint8_t lru = 0;
    };
    std::array<Set, 2> sets_{};
};

TEST(HwCache, MatchesReferenceLru)
{
    // Each stream draws from a handful of lines, so lines are reused,
    // evicted and reused again in both sets. The pool always holds the
    // top line (0xFFF8-0xFFFF, the largest tag) and address 0.
    for (std::uint32_t seed = 1; seed <= 64; ++seed) {
        std::mt19937 rng(seed);
        std::array<std::uint16_t, 6> lines{0xFFF8, 0x0000};
        for (std::size_t i = 2; i < lines.size(); ++i)
            lines[i] = static_cast<std::uint16_t>(rng() & 0xFFF8);
        HwCache cache;
        ReferenceLru ref;
        for (int step = 0; step < 4000; ++step) {
            std::uint16_t addr = static_cast<std::uint16_t>(
                lines[rng() % lines.size()] | (rng() & 7));
            std::uint32_t what = rng() % 64;
            if (what == 0) {
                cache.reset();
                ref.reset();
            } else if (what < 8) {
                ASSERT_EQ(cache.probe(addr), ref.probe(addr))
                    << "seed " << seed << " step " << step;
            } else {
                ASSERT_EQ(cache.access(addr), ref.access(addr))
                    << "seed " << seed << " step " << step;
            }
        }
        // After a reset both agree that every line is gone.
        cache.reset();
        ref.reset();
        for (std::uint16_t line : lines) {
            EXPECT_FALSE(cache.probe(line));
            EXPECT_EQ(cache.access(line), ref.access(line));
        }
    }
}

TEST(Stalls, SequentialCodeMostlyHits)
{
    // Straight-line code in FRAM at 24 MHz, one line at a time: every
    // fetch word is one read-cache access, one miss per 8-byte line,
    // and no access contends (no instruction crosses a line), so every
    // stall cycle is a miss's wait states. The oracle and the threaded
    // tier (which books its probes as hits and fixes up the misses)
    // count the same hits and misses.
    const std::string body = "        NOP\n        NOP\n        NOP\n"
                             "        NOP\n        NOP\n        NOP\n";
    std::array<sim::Stats, 2> tier{};
    for (bool threaded : {false, true}) {
        sim::MachineConfig cfg;
        cfg.clock_hz = 24'000'000;
        cfg.superblock_enabled = threaded;
        cfg.threaded_enabled = threaded;
        auto r = test::runBody(body, cfg);
        ASSERT_TRUE(r.result.done);
        const sim::Stats &st = r.stats();
        EXPECT_EQ(st.fram_cache_hits + st.fram_cache_misses, st.fram.fetch);
        EXPECT_GT(st.fram_cache_hits, st.fram_cache_misses);
        EXPECT_GT(st.fram_cache_misses, 0u);
        EXPECT_EQ(st.stall_cycles,
                  st.fram_cache_misses * platform::kFramWaitStates24MHz);
        EXPECT_EQ(st.threaded_instructions > 0, threaded);
        tier[threaded] = st;
    }
    EXPECT_EQ(tier[1].fram_cache_hits, tier[0].fram_cache_hits);
    EXPECT_EQ(tier[1].fram_cache_misses, tier[0].fram_cache_misses);
}

TEST(Stalls, ZeroWaitStatesAt8MHz)
{
    sim::MachineConfig cfg;
    cfg.clock_hz = 8'000'000;
    // Straight-line code touches one line at a time: no contention, no
    // wait states at 8 MHz.
    auto r = test::runBody("        NOP\n        NOP\n        NOP\n", cfg);
    EXPECT_EQ(r.stats().stall_cycles, 0u);
}

TEST(Stalls, ContentionAt8MHzForDisjointAccesses)
{
    // MOV &a, &b with a, b, and the code all in distinct FRAM lines:
    // a single instruction issuing multiple missing FRAM accesses pays
    // the contention stall even at 8 MHz.
    sim::MachineConfig cfg;
    cfg.clock_hz = 8'000'000;
    masm::LayoutSpec layout;
    layout.data_base = 0x9000; // FRAM data (unified memory model)
    auto r = test::runSource("        .text\n"
                             "__start:\n"
                             "        MOV #0x3000, SP\n"
                             "        MOV &a, &b\n"
                             "        MOV.B #0, &__DONE\n"
                             "        .data\n"
                             "a:      .word 1\n"
                             "        .align 8\n"
                             "        .space 8\n"
                             "b:      .word 0\n",
                             cfg, layout);
    EXPECT_TRUE(r.result.done);
    EXPECT_GT(r.stats().stall_cycles, 0u);
    EXPECT_EQ(r.machine->peek16(r.assembled.symbol("b")), 1);
}

TEST(Stalls, SramNeverStalls)
{
    // Execute code out of SRAM: zero stall cycles even at 24 MHz, apart
    // from the initial FRAM fetch of the copy loop. Here we place the
    // whole text in SRAM directly.
    sim::MachineConfig cfg;
    cfg.clock_hz = 24'000'000;
    masm::LayoutSpec layout;
    layout.text_base = 0x2000;
    layout.data_base = 0x2800;
    auto r = test::runSource("        .text\n"
                             "__start:\n"
                             "        MOV #0x3000, SP\n"
                             "        MOV #100, R5\n"
                             "loop:   DEC R5\n"
                             "        JNE loop\n"
                             "        MOV.B #0, &__DONE\n",
                             cfg, layout);
    EXPECT_TRUE(r.result.done);
    EXPECT_EQ(r.stats().stall_cycles, 0u);
    EXPECT_EQ(r.stats().fram.total(), 0u);
}

TEST(Stalls, WaitStatesScaleMisses)
{
    // Same program at 8 vs 24 MHz: identical base cycles, stalls only
    // at 24 MHz (for line-crossing fetches).
    std::string body = "        MOV #50, R5\n"
                       "big:    DEC R5\n"
                       "        NOP\n        NOP\n        NOP\n"
                       "        NOP\n        NOP\n        NOP\n"
                       "        JNE big\n";
    sim::MachineConfig cfg8;
    cfg8.clock_hz = 8'000'000;
    sim::MachineConfig cfg24;
    cfg24.clock_hz = 24'000'000;
    auto r8 = test::runBody(body, cfg8);
    auto r24 = test::runBody(body, cfg24);
    EXPECT_EQ(r8.stats().base_cycles, r24.stats().base_cycles);
    EXPECT_EQ(r8.stats().instructions, r24.stats().instructions);
    EXPECT_GT(r24.stats().stall_cycles, r8.stats().stall_cycles);
}

} // namespace
