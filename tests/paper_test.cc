/**
 * @file
 * The paper document ("swapram-paper/v1") must match
 * tests/golden/paper.json byte for byte with no failed cell, and each
 * claim EXPERIMENTS.md makes from Table 1 through the ablations is an
 * assertion on the live document, the recorded deviations from the
 * paper included. Paper.OracleTwinAgrees runs every cell again on the
 * single-step oracle. Regenerate the recording only for a change meant
 * to move the paper's numbers:
 *
 *     swapram_tool paper --json > tests/golden/paper.json
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/paper.hh"
#include "recording.hh"

namespace {

using namespace swapram;
using support::json::Value;

const Value &
document()
{
    static const Value doc = harness::paperDocument(harness::Engine(0));
    return doc;
}

const Value &
tableOf(const std::string &id)
{
    for (const Value &t : document()["tables"].asArray()) {
        if (t["id"].asString() == id)
            return t;
    }
    ADD_FAILURE() << "no table " << id;
    static const Value none;
    return none;
}

/** Column @p col of the row of table @p id that starts with @p first,
 *  as a number: "1.32x", "-33.3%" and "1,234" alike. */
double
num(const std::string &id, const std::string &first, std::size_t col)
{
    for (const Value &row : tableOf(id)["rows"].asArray()) {
        if (row.at(0).asString() == first) {
            std::string text = row.at(col).asString();
            std::erase(text, ',');
            return std::stod(text);
        }
    }
    ADD_FAILURE() << id << " has no row " << first;
    return 0;
}

const char *const kNine[] = {"STR", "DIJ", "CRC", "RC4", "FFT",
                             "AES", "LZFX", "BIT", "RSA"};

TEST(Paper, MatchesTheRecording)
{
    test::expectSameLines(document().dump(2) + "\n",
                          test::readFile(SWAPRAM_PAPER_FILE),
                          "the paper document");
    EXPECT_TRUE(document()["failures"].asArray().empty());
}

/** Every cell again on the single-step oracle: the simulated counters
 *  and checksums agree, and the fast side really ran threaded. */
TEST(Paper, OracleTwinAgrees)
{
    const std::vector<harness::RunSpec> fast = harness::paperSpecs();
    ASSERT_EQ(fast.size(), 115u);
    std::vector<harness::RunSpec> specs = fast;
    for (harness::RunSpec spec : fast) {
        spec.superblock = spec.threaded = false;
        specs.push_back(spec);
    }
    const std::vector<harness::RunOutcome> outcomes =
        harness::Engine(0).runAll(specs);
    std::uint64_t instructions = 0, threaded = 0;
    for (std::size_t i = 0; i < fast.size(); ++i) {
        const std::string key = std::to_string(i) + " " +
                                fast[i].workload->name + "/" +
                                harness::systemName(fast[i].system);
        ASSERT_TRUE(outcomes[i].ok()) << key << ": "
                                      << outcomes[i].error_text;
        const harness::RunOutcome &oracle = outcomes[fast.size() + i];
        ASSERT_TRUE(oracle.ok()) << key << ": " << oracle.error_text;
        const harness::Metrics &f = outcomes[i].metrics;
        const harness::Metrics &o = oracle.metrics;
        ASSERT_EQ(f.fits, o.fits) << key;
        EXPECT_EQ(f.checksum, o.checksum) << key;
        EXPECT_EQ(f.stats.simulated(), o.stats.simulated()) << key;
        instructions += f.stats.instructions;
        threaded += f.stats.threaded_instructions;
    }
    EXPECT_GT(100 * threaded, 99 * instructions)
        << threaded << " of " << instructions << " ran threaded";
}

TEST(PaperClaims, Table1)
{
    // Code-space accesses dominate (§2.4); deviation: the average
    // exceeds the paper's 3.035.
    for (const char *w : kNine)
        EXPECT_GT(num("table1", w, 3), 1.0) << w;
    EXPECT_GT(num("table1", "Average", 3), 3.035);
}

TEST(PaperClaims, Figure1)
{
    // "vs unified" (column 4): unified is slowest even at 8 MHz, code
    // in SRAM beats data in SRAM, and SRAM/SRAM is the bound.
    for (const char *id : {"fig1_24mhz", "fig1_8mhz"}) {
        const double standard = num(id, "code FRAM / data SRAM (standard)", 4);
        const double code = num(id, "code SRAM / data FRAM", 4);
        EXPECT_GT(standard, 1.0) << id;
        EXPECT_GT(code, standard) << id;
        EXPECT_GE(num(id, "code SRAM / data SRAM", 4), code) << id;
    }
}

TEST(PaperClaims, Table2)
{
    // Geo-mean deltas (block cache column 3, SwapRAM column 5): SwapRAM
    // removes more FRAM accesses for fewer extra cycles, AES pays its
    // largest overhead, and (deviation) that exceeds the paper's +6.9%.
    const std::string fram = "table2_fram_accesses";
    const std::string cyc = "table2_base_cycles";
    EXPECT_LT(num(fram, "Geo. mean", 5), num(fram, "Geo. mean", 3));
    EXPECT_LT(num(fram, "Geo. mean", 3), 0);
    EXPECT_LT(num(cyc, "Geo. mean", 5), num(cyc, "Geo. mean", 3));
    EXPECT_GT(num(cyc, "Geo. mean", 5), 6.9);
    for (const char *w : kNine)
        EXPECT_LE(num(cyc, w, 5), num(cyc, "AES", 5)) << w;
}

TEST(PaperClaims, Figure7)
{
    // The block cache grows NVM more than SwapRAM. Deviations: SwapRAM
    // grows more than the paper's +27%, its handler is smaller than the
    // paper's 972 B, and every benchmark fits the 8 KiB budget.
    const Value &derived = tableOf("fig7")["derived"];
    auto value = [&](const char *name) {
        return std::stod(derived[name].asString());
    };
    EXPECT_GT(value("Block-based NVM growth (geo mean)"),
              value("SwapRAM NVM growth (geo mean)"));
    EXPECT_GT(value("SwapRAM NVM growth (geo mean)"), 27);
    EXPECT_LT(value("SwapRAM miss handler size (B)"), 972);
    for (const Value &row : tableOf("fig7")["rows"].asArray())
        EXPECT_EQ(row.at(6).asString(), "yes") << row.at(0).asString();
}

TEST(PaperClaims, Figure8)
{
    // SwapRAM runs the application from SRAM (app-FRAM, column 1), AES
    // grows most (total, column 5); the block cache's runtime entries
    // cost more, and it runs no application code from FRAM.
    for (const char *w : kNine) {
        EXPECT_LE(num("fig8_swapram", w, 1), 0.1) << w;
        EXPECT_LE(num("fig8_swapram", w, 5), num("fig8_swapram", "AES", 5));
        EXPECT_GT(num("fig8_block", w, 5), num("fig8_swapram", w, 5)) << w;
        EXPECT_EQ(num("fig8_block", w, 1), 0.0) << w;
    }
    // In every block cell the application-owned FRAM instructions are
    // the startup stub's and boot recovery's: one small count for all.
    std::set<std::int64_t> from_fram;
    for (const Value &cell : document()["cells"].asArray()) {
        if (cell["key"]["system"].asString() == "block")
            from_fram.insert(cell["instr_by_owner"]["app-fram"].asInt());
    }
    ASSERT_EQ(from_fram.size(), 1u);
    EXPECT_LT(*from_fram.begin(), 10);
}

TEST(PaperClaims, Figure9)
{
    // Columns: SR speedup, SR energy, BB speedup, BB energy. SwapRAM is
    // faster and leaner at both clocks; the block cache is slower on the
    // geo mean and on AES.
    for (const char *id : {"fig9_24mhz", "fig9_8mhz"}) {
        EXPECT_GT(num(id, "Geo. mean", 1), 1.0) << id;
        EXPECT_LT(num(id, "Geo. mean", 2), 0) << id;
        EXPECT_LT(num(id, "Geo. mean", 3), 1.0) << id;
        EXPECT_LT(num(id, "AES", 3), 1.0) << id;
    }
    // Deviation: at 24 MHz the block cache wins on CRC and RC4 only
    // (the paper has RC4 and BIT).
    for (const std::string w : kNine)
        EXPECT_EQ(num("fig9_24mhz", w, 3) > 1.0, w == "CRC" || w == "RC4");
}

TEST(PaperClaims, Figure10)
{
    // Columns 3 and 4: SR speedup and energy; column 6: BB speedup.
    EXPECT_GT(num("fig10_24mhz", "Geo. mean", 3), 1.0);
    EXPECT_LT(num("fig10_24mhz", "Geo. mean", 4), 0);
    // Deviation: split SwapRAM at 8 MHz is slower than standard (the
    // paper has +8%), though it still saves energy.
    EXPECT_LT(num("fig10_8mhz", "Geo. mean", 3), 1.0);
    EXPECT_LT(num("fig10_8mhz", "Geo. mean", 4), 0);
    // The block cache "significantly reduces performance" on AES.
    EXPECT_LT(num("fig10_24mhz", "AES", 6), 0.5);
    EXPECT_LT(num("fig10_8mhz", "AES", 6), 0.5);
}

TEST(PaperClaims, Ablations)
{
    // The queue beats the stack on AES at 384-768 B (§3.4).
    for (const char *bytes : {"384", "512", "768"}) {
        for (const Value &row : tableOf("ablation_policy")["rows"].asArray()) {
            if (row.at(0).asString() == "AES" &&
                row.at(1).asString() == bytes) {
                EXPECT_GT(std::stod(row.at(4).asString()), 1.0) << bytes;
            }
        }
    }
    // FFT at 512 B thrashes below the baseline and recovers from 1 KiB.
    EXPECT_LT(num("ablation_cache_size", "512", 2), 1.0);
    for (const char *bytes : {"1024", "2048", "3072", "4096"})
        EXPECT_GT(num("ablation_cache_size", bytes, 2), 1.0) << bytes;
    // Blacklisting rsa_modmul costs cycles and FRAM accesses.
    for (std::size_t col : {1, 2}) {
        EXPECT_GT(num("ablation_blacklist", "rsa_modmul blacklisted", col),
                  num("ablation_blacklist", "all functions cacheable", col));
    }
    // Freezing keeps the golden checksum and saves cycles.
    EXPECT_LT(num("ablation_freeze", "freeze after 4 aborts", 1),
              num("ablation_freeze", "paper baseline", 1));
    for (const Value &row : tableOf("ablation_freeze")["rows"].asArray())
        EXPECT_EQ(row.at(3).asString(), "yes");
}

} // namespace
