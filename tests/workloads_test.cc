/**
 * @file
 * Workload validation (the paper's §5.1 "SwapRAM maintains program
 * flow", made exhaustive): every benchmark must produce its golden
 * checksum and identical final memory state under the baseline,
 * SwapRAM, and the block cache — wherever the build fits.
 *
 * Parameterized over the registry so each workload/system pair is its
 * own test case.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "masm/parser.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace swapram::workloads {
// Exposed by aes.cc for the FIPS-vector check.
void aesGoldenEncrypt(const std::uint8_t key[16],
                      const std::uint8_t in[16], std::uint8_t out[16]);
} // namespace swapram::workloads

namespace {

using namespace swapram;
using harness::Placement;
using harness::System;

class WorkloadRun
    : public ::testing::TestWithParam<std::tuple<std::string, System>>
{
};

TEST_P(WorkloadRun, ChecksumMatchesGolden)
{
    const auto &[name, system] = GetParam();
    const workloads::Workload *w = workloads::find(name);
    ASSERT_NE(w, nullptr);
    auto m = harness::run(*w, system, Placement::Unified);
    if (!m.fits)
        GTEST_SKIP() << "DNF: " << m.fit_note;
    ASSERT_TRUE(m.done) << "did not finish in the cycle budget";
    EXPECT_EQ(m.checksum, w->expected);
}

std::vector<std::tuple<std::string, System>>
allCases()
{
    std::vector<std::tuple<std::string, System>> cases;
    for (const auto &w : workloads::all()) {
        cases.push_back({w.name, System::Baseline});
        cases.push_back({w.name, System::SwapRam});
        cases.push_back({w.name, System::BlockCache});
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<std::tuple<std::string, System>>
             &info)
{
    return std::get<0>(info.param) + "_" +
           harness::systemName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRun,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(Workloads, FinalMemoryStateAgreesAcrossSystems)
{
    for (const auto &w : workloads::all()) {
        auto base = harness::run(w, System::Baseline);
        ASSERT_TRUE(base.fits && base.done) << w.name;
        auto swap = harness::run(w, System::SwapRam);
        if (swap.fits) {
            ASSERT_TRUE(swap.done) << w.name;
            EXPECT_EQ(base.data_snapshot, swap.data_snapshot) << w.name;
        }
        auto block = harness::run(w, System::BlockCache);
        if (block.fits) {
            ASSERT_TRUE(block.done) << w.name;
            EXPECT_EQ(base.data_snapshot, block.data_snapshot) << w.name;
        }
    }
}

TEST(Workloads, AesGoldenMatchesFipsVector)
{
    const std::uint8_t key[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                  0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                  0x0c, 0x0d, 0x0e, 0x0f};
    const std::uint8_t pt[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                 0xcc, 0xdd, 0xee, 0xff};
    const std::uint8_t expect[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                     0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                     0x70, 0xb4, 0xc5, 0x5a};
    std::uint8_t out[16];
    workloads::aesGoldenEncrypt(key, pt, out);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], expect[i]) << "byte " << i;
}

TEST(Workloads, RegistryHasTheNinePaperBenchmarks)
{
    const char *expected[] = {"stringsearch", "dijkstra", "crc",
                              "rc4",          "fft",      "aes",
                              "lzfx",         "bitcount", "rsa"};
    ASSERT_EQ(workloads::all().size(), 9u);
    for (const char *name : expected)
        EXPECT_NE(workloads::find(name), nullptr) << name;
    EXPECT_EQ(workloads::find("nope"), nullptr);
}

TEST(Workloads, CrcGoldenMatchesCcittCheckValue)
{
    // CRC-16/CCITT-FALSE over "123456789" is the published 0x29B1.
    std::uint16_t crc = 0xFFFF;
    for (char c : std::string("123456789"))
        crc = workloads::crcGoldenUpdate(crc,
                                         static_cast<std::uint8_t>(c));
    EXPECT_EQ(crc, 0x29B1);
}

/** Statement-for-statement equality, source line included. */
void
expectSameProgram(const masm::Program &got, const masm::Program &want,
                  const std::string &what)
{
    ASSERT_EQ(got.stmts.size(), want.stmts.size()) << what;
    for (std::size_t i = 0; i < want.stmts.size(); ++i) {
        ASSERT_EQ(got.stmts[i].line, want.stmts[i].line)
            << what << ", statement " << i;
        ASSERT_EQ(got.stmts[i].text(), want.stmts[i].text())
            << what << ", statement " << i;
    }
}

/** runOne's splice of the stub, the memoized source and the library
 *  equals the parse of their concatenation, for every workload and
 *  every stub shape the runner emits. */
TEST(Workloads, SplicedProgramEqualsWholeTextParse)
{
    std::vector<const workloads::Workload *> ws;
    for (const workloads::Workload &w : workloads::all())
        ws.push_back(&w);
    for (const workloads::Workload &w : workloads::capacity())
        ws.push_back(&w);
    const std::string lib = workloads::libSource();
    const std::uint16_t top =
        harness::makePlacement(Placement::Unified).stack_top;
    for (const workloads::Workload *w : ws) {
        for (int repeats : {1, 10}) {
            for (const char *recover : {"", "__swp_recover"}) {
                const std::string stub =
                    harness::startupSource(top, repeats, recover);
                expectSameProgram(
                    harness::spliceSource(stub, *w, true),
                    masm::parse(stub + w->source + lib),
                    w->name + " x" + std::to_string(repeats) + " " +
                        recover);
            }
        }
    }
}

TEST(Workloads, SpliceFollowsTheSourceText)
{
    // No final newline: its last line runs into the library's first.
    workloads::Workload w;
    w.name = "no_newline";
    w.source = "        .text\n"
               "        .func main\n"
               "        MOV #7, R12\n"
               "        RET\n"
               "        .endfunc";
    const std::string lib = workloads::libSource();
    const std::string stub = harness::startupSource(0x3000, 10);
    expectSameProgram(harness::spliceSource(stub, w, true),
                      masm::parse(stub + w.source + lib), "with lib");
    expectSameProgram(harness::spliceSource(stub, w, false),
                      masm::parse(stub + w.source), "without lib");

    // A copy shares the parse until its source changes; then it is
    // re-parsed, and the original still splices its own text.
    workloads::Workload edited = w;
    EXPECT_EQ(edited.parsed, w.parsed);
    edited.source.insert(edited.source.find("RET"), "NOP\n        ");
    expectSameProgram(harness::spliceSource(stub, edited, true),
                      masm::parse(stub + edited.source + lib), "edited");
    expectSameProgram(harness::spliceSource(stub, w, true),
                      masm::parse(stub + w.source + lib), "original");
}

TEST(Workloads, ArithKernelRunsEverywhere)
{
    auto w = workloads::makeArith();
    for (auto placement :
         {Placement::Unified, Placement::Standard, Placement::SramCode,
          Placement::SramAll}) {
        auto m = harness::run(w, System::Baseline, placement);
        ASSERT_TRUE(m.fits) << harness::placementName(placement) << ": "
                            << m.fit_note;
        ASSERT_TRUE(m.done);
        EXPECT_EQ(m.checksum, w.expected)
            << harness::placementName(placement);
    }
}

TEST(Workloads, CacheSystemsRefuseCodeInSram)
{
    // The cache runtimes copy code into SRAM; code placed there already
    // is refused, naming the placement and the system.
    for (auto system : {System::SwapRam, System::BlockCache}) {
        for (auto placement : {Placement::SramCode, Placement::SramAll}) {
            std::string what = "(ran)";
            try {
                harness::run(*workloads::find("crc"), system, placement);
            } catch (const support::FatalError &e) {
                what = e.what();
            }
            EXPECT_EQ(what, "fatal: placement '" +
                                harness::placementName(placement) +
                                "' puts the code in SRAM, where system '" +
                                harness::systemName(system) +
                                "' caches it; use unified, standard or split");
        }
    }
}

} // namespace
