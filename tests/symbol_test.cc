/**
 * @file
 * The symbol interner: equal names get equal ids, every id keeps its
 * name, and threads interning the same new names at once agree (the
 * CI thread-sanitizer leg runs these).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "masm/symbol.hh"

namespace {

using swapram::masm::Symbol;

TEST(Symbols, EqualNamesShareAnId)
{
    const Symbol a("symbol_test_alpha");
    const Symbol b(std::string("symbol_test_") + "alpha");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.str(), "symbol_test_alpha");
    EXPECT_NE(a, Symbol("symbol_test_beta"));
    EXPECT_LT(a.id(), Symbol::bound());
    EXPECT_EQ(Symbol::find("symbol_test_alpha"), a);
}

TEST(Symbols, EmptyNameIsTheEmptySymbol)
{
    EXPECT_TRUE(Symbol().empty());
    EXPECT_EQ(Symbol(""), Symbol());
    EXPECT_EQ(Symbol().str(), "");
    EXPECT_TRUE(Symbol::find("symbol_test_never_interned").empty());
}

// Eight threads intern the same 6000 new names, each in its own
// order, while the table grows under them: every thread must get the
// same id for a name, every id must read back its name, and a thread
// that receives an id (mostly one another thread just added) must
// already see a bound() past it, since tables indexed by id are sized
// with bound().
TEST(Symbols, ConcurrentInterningAgrees)
{
    constexpr int kThreads = 8;
    constexpr int kNames = 6000;
    std::vector<std::vector<Symbol>> got(kThreads,
                                         std::vector<Symbol>(kNames));
    std::atomic<int> below_bound{0};
    std::vector<std::thread> threads;
    // Strides prime to kNames: each thread visits every name once.
    constexpr int kStride[kThreads] = {1, 7, 11, 13, 17, 19, 23, 29};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&got, &below_bound, &kStride, t]() {
            for (int k = 0; k < kNames; ++k) {
                const int i = (k * kStride[t] + 97 * t) % kNames;
                const Symbol s("symbol_test_stress_" + std::to_string(i));
                if (s.id() >= Symbol::bound())
                    below_bound.fetch_add(1, std::memory_order_relaxed);
                got[t][i] = s;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(below_bound.load(), 0);
    for (int i = 0; i < kNames; ++i) {
        const std::string name = "symbol_test_stress_" + std::to_string(i);
        ASSERT_EQ(got[0][i].str(), name);
        ASSERT_EQ(Symbol::find(name), got[0][i]);
        for (int t = 1; t < kThreads; ++t)
            ASSERT_EQ(got[t][i], got[0][i]) << name << " thread " << t;
    }
}

} // namespace
