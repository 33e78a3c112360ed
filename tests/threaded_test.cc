/**
 * @file
 * Threaded-code tier tests. The tier is a host-side optimization only:
 * every simulated observable — registers, memory, checksums,
 * cycle/stall counts, per-region access counts, interrupt and reboot
 * cycles — must be bit-identical with threaded dispatch on or off (the
 * single-step oracle is the reference). The host-side threaded_*,
 * superblock_*, and predecode_* counters are the only permitted
 * divergence (each run builds only its own tier's decode cache). Every
 * twin also checks that its fast side really ran: more than half its
 * instructions must retire threaded.
 * The harness twins add an observed side, the spec with its swap
 * timeline on the default tier: its timeline and trace event count
 * must equal the oracle's, and it must single-step fewer instructions
 * than half its copy loop ran, so the copy loop itself ran threaded.
 *
 * Coverage concentrates on the bail-out guards: register-dependent
 * MMIO operands, stores into the executing block, block revalidation
 * after stores beside or into code, successor links across stores,
 * owner changes, checkpoint probes and power cycles,
 * fault/timer/cycle-budget boundaries, recovery-range crossings,
 * mid-eviction and data-pool swap windows under capacity pressure,
 * harvest brown-outs landing mid-chain, traces joined across static
 * jumps (stores into a later segment, a segment on another page, a
 * patched branch immediate, owner and probe stops, the stack at the
 * SRAM base), and the full golden workload×system×sram_size matrix.
 * Long loops ending in a bail pin the chain's deferred accounting.
 * Forms without a kernel run on the oracle between threaded code, and
 * a grid runs every Format I and Format II form once on each tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/report.hh"
#include "isa/decode.hh"
#include "isa/disasm.hh"
#include "sim/fault.hh"
#include "sim/harvest.hh"
#include "sim/superblock.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "support/strings.hh"
#include "testutil.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using isa::Reg;

/** The threaded tier when @p enabled, else the single-step oracle. */
sim::MachineConfig
withThreaded(bool enabled)
{
    sim::MachineConfig config;
    config.superblock_enabled = enabled;
    config.threaded_enabled = enabled;
    return config;
}

/** The fast side of a harness twin: the threaded tier with nothing
 *  observed (the profiler, metrics, and per-step trace categories pin
 *  a run to the oracle). */
harness::RunSpec
fastSide(harness::RunSpec spec)
{
    spec.superblock = true;
    spec.threaded = true;
    spec.observe = {};
    return spec;
}

/** The reference side of a harness twin: the single-step oracle. */
harness::RunSpec
oracleSide(harness::RunSpec spec)
{
    spec.superblock = false;
    spec.threaded = false;
    return spec;
}

/** The fast side of a twin must retire more than half its
 *  instructions on the threaded tier, or the twin proves nothing. */
void
expectMostlyThreaded(const sim::Stats &fast, const std::string &ctx)
{
    EXPECT_GT(2 * fast.threaded_instructions, fast.instructions)
        << ctx << ": only " << fast.threaded_instructions << " of "
        << fast.instructions << " instructions ran threaded";
}

/** The observed side of a twin keeps its swap timeline, which reads
 *  the copy loop's registers instead of its accesses: it must retire
 *  fewer instructions on the oracle than half the copy loop's (the
 *  Memcpy owner's), so most of the copy loop ran threaded. */
void
expectCopyLoopThreaded(const sim::Stats &observed, const std::string &ctx)
{
    std::uint64_t stepped =
        observed.instructions - observed.threaded_instructions;
    std::uint64_t copy_loop =
        observed.instr_by_owner[static_cast<int>(sim::CodeOwner::Memcpy)];
    EXPECT_LT(2 * stepped, copy_loop)
        << ctx << ": " << stepped << " instructions single-stepped, "
        << copy_loop << " in the copy loop";
}

/** The observed run reconstructs the oracle's timeline exactly and
 *  its trace engine accepted the same number of events. */
void
expectTimelineEqual(const harness::Metrics &observed,
                    const harness::Metrics &oracle,
                    const std::string &ctx)
{
    EXPECT_EQ(observed.swap_events.size(), oracle.swap_events.size())
        << ctx;
    EXPECT_TRUE(observed.swap_events == oracle.swap_events)
        << ctx << ": swap events differ";
    EXPECT_TRUE(observed.occupancy == oracle.occupancy)
        << ctx << ": occupancy differs";
    EXPECT_TRUE(observed.swap_summary == oracle.swap_summary)
        << ctx << ": swap summary differs";
    EXPECT_EQ(observed.trace_emitted, oracle.trace_emitted) << ctx;
}

/** The host-side counters exist and are coherent, and the oracle twin
 *  builds no blocks at all. */
TEST(Threaded, CountersAccountForBlockCoverage)
{
    const char body[] =
        "        MOV #50, R10\n"
        "cloop:  ADD #3, R11\n"
        "        XOR R11, R12\n"
        "        DEC R10\n"
        "        JNZ cloop\n";
    test::MiniRun on = test::runBody(body, withThreaded(true));
    ASSERT_TRUE(on.result.done);
    const sim::Stats &s = on.stats();
    EXPECT_GT(s.superblock_blocks_built, 0u);
    EXPECT_GT(s.threaded_blocks_lowered, 0u);
    EXPECT_GT(s.threaded_dispatches, 0u);
    EXPECT_LE(s.threaded_instructions, s.instructions);
    // The loop dominates: most instructions retire in threaded mode.
    expectMostlyThreaded(s, "counters");

    test::MiniRun off = test::runBody(body, withThreaded(false));
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(off.stats().superblock_blocks_built, 0u);
    EXPECT_EQ(off.stats().threaded_dispatches, 0u);

    // The threaded tier is the default: a default RunSpec on crc
    // retires most of its instructions threaded.
    workloads::Workload crc = workloads::makeCrc();
    harness::RunSpec spec;
    spec.workload = &crc;
    expectMostlyThreaded(harness::runOne(spec).stats, "default RunSpec");
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << "counters";
}

/** Each run builds only its own tier's decode cache: a plain run
 *  dispatches threaded with no predecode cache at all (its bails
 *  decode afresh), while a profile run and a metrics run take the
 *  oracle tier with the predecode cache and build no block. */
TEST(Threaded, EachTierOwnsOneDecodeCache)
{
    workloads::Workload crc = workloads::makeCrc();
    harness::RunSpec plain;
    plain.workload = &crc;
    plain.system = harness::System::SwapRam;

    const harness::Metrics fast = harness::runOne(plain);
    ASSERT_TRUE(fast.done);
    EXPECT_GT(fast.stats.threaded_instructions, 0u);
    EXPECT_EQ(fast.stats.predecode_hits, 0u);
    EXPECT_EQ(fast.stats.predecode_misses, 0u);
    EXPECT_EQ(fast.stats.predecode_invalidations, 0u);

    harness::RunSpec profiled = plain;
    profiled.observe.profile = true;
    harness::RunSpec measured = plain;
    measured.observe.metrics = true;
    for (const auto &[spec, name] :
         {std::pair{profiled, "profile"}, std::pair{measured, "metrics"}}) {
        const harness::Metrics m = harness::runOne(spec);
        ASSERT_TRUE(m.done) << name;
        EXPECT_GT(m.stats.predecode_hits, 0u) << name;
        EXPECT_EQ(m.stats.superblock_blocks_built, 0u) << name;
        EXPECT_EQ(m.stats.threaded_instructions, 0u) << name;
        EXPECT_EQ(fast.stats.simulated(), m.stats.simulated()) << name;
    }
}

/** A register-dependent store into MMIO space: the inline mapped-space
 *  pre-check must bail to the oracle with nothing committed, so the
 *  device sees exactly one write per loop iteration. */
const char kDynMmioBody[] =
    "        MOV #0x0100, R7\n" // console register, via register
    "        MOV #65, R6\n"
    "        MOV #3, R10\n"
    "loop:   MOV.B R6, 0(R7)\n"
    "        ADD #1, R6\n"
    "        DEC R10\n"
    "        JNZ loop\n";

TEST(Threaded, DynamicMmioOperandBailsToOracle)
{
    test::MiniRun on = test::runBody(kDynMmioBody, withThreaded(true));
    test::MiniRun off = test::runBody(kDynMmioBody, withThreaded(false));
    ASSERT_TRUE(on.result.done);
    EXPECT_EQ(on.machine->mmio().console(), "ABC");
    EXPECT_EQ(off.machine->mmio().console(), "ABC");
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << "dyn-mmio";
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
    expectMostlyThreaded(on.stats(), "dyn-mmio");
}

/** Within-block self-modification: the store lands on the *next*
 *  instruction of the same straight-line block (patching ADD #1 into
 *  ADD #2 before it executes). The page-generation check after the
 *  committed store must stop the chain, not execute the stale lowered
 *  kernel. */
const char kSmcBody[] =
    "        MOV #0, R12\n"
    "        MOV &alt, &patch\n"
    "patch:  ADD #1, R12\n"
    "        JMP fin\n"
    "alt:    ADD #2, R12\n"
    "fin:\n";

TEST(Threaded, SelfModifyingStoreInOwnBlockMatchesOracle)
{
    test::MiniRun on = test::runBody(kSmcBody, withThreaded(true));
    test::MiniRun off = test::runBody(kSmcBody, withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R12), 2) << "stale lowered kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 2);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << "smc";
    EXPECT_GT(on.stats().threaded_bail_smc, 0u);
    expectMostlyThreaded(on.stats(), "smc");
}

/** A loop that stores into a word on its own code's 64-byte page:
 *  every store moves the page's generation, but the bytes the block
 *  was built from stay the same, so the block and its lowered code
 *  are kept instead of rebuilt once per iteration. */
const char kStoreBesideCodeBody[] =
    "        MOV #200, R10\n"
    "sloop:  ADD #3, &scount\n"
    "        DEC R10\n"
    "        JNZ sloop\n"
    "        JMP sdone\n"
    "scount: .word 0\n"
    "sdone:\n";

TEST(Threaded, StoreBesideCodeKeepsItsBlock)
{
    test::MiniRun on = test::runBody(kStoreBesideCodeBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kStoreBesideCodeBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    const std::uint16_t count = on.assembled.symbol("scount");
    ASSERT_EQ(count >> sim::PageGenTable::kPageShift,
              on.assembled.symbol("sloop") >> sim::PageGenTable::kPageShift);
    EXPECT_EQ(on.machine->peek16(count), 600);
    EXPECT_EQ(off.machine->peek16(count), 600);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "store beside code";
    expectMostlyThreaded(on.stats(), "store beside code");
    EXPECT_LT(on.stats().threaded_blocks_lowered, 10u);
    EXPECT_LT(on.stats().superblock_invalidations, 10u);
}

/** A loop that rewrites the immediate of an instruction in another
 *  block before running it: changed bytes must rebuild that block on
 *  every pass, or a stale immediate is added. */
const char kPatchedImmediateBody[] =
    "        MOV #0, R12\n"
    "        MOV #50, R10\n"
    "ploop:  ADD #1, &pimm+2\n"
    "        JMP pimm\n"
    "pimm:   ADD #100, R12\n"
    "        DEC R10\n"
    "        JNZ ploop\n";

TEST(Threaded, ChangedBytesRebuildTheBlock)
{
    test::MiniRun on = test::runBody(kPatchedImmediateBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kPatchedImmediateBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    // 101 + 102 + ... + 150.
    EXPECT_EQ(on.reg(Reg::R12), 6275) << "stale lowered kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 6275);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "patched immediate";
    expectMostlyThreaded(on.stats(), "patched immediate");
    EXPECT_GE(on.stats().superblock_invalidations, 49u);
}

/** A block stopped by an undecodable word that its own first
 *  instruction overwrites with a real one: the next pass must see the
 *  longer block a fresh build would make. */
const char kPatchedScanEndBody[] =
    "        MOV #0, R12\n"
    "        MOV #3, R10\n"
    "utop:   MOV &utmpl, &uslot\n"
    "uslot:  .word 0\n"
    "        DEC R10\n"
    "        JNZ utop\n"
    "        JMP udone\n"
    "utmpl:  ADD R10, R12\n"
    "udone:\n";

/** A block engine of the test's own over an oracle machine's memory,
 *  fed by the machine bus's stores. */
struct EngineRig {
    sim::Machine machine{withThreaded(false)};
    sim::Stats stats;
    sim::SuperblockEngine sb{machine.memory(), machine.bus(), stats,
                             machine.config()};

    EngineRig() { machine.bus().setPageGens(&sb.pageGens()); }

    /** Instructions in the block at @p pc (0 when none). */
    std::size_t
    length(std::uint16_t pc)
    {
        const sim::SuperblockEngine::Block *b = sb.lookup(pc);
        return b ? b->instrs.size() : 0;
    }
};

constexpr std::uint16_t kAddR4R12 = 0x540C; ///< ADD R4, R12

TEST(Threaded, RewrittenScanEndWordRebuildsTheBlock)
{
    test::MiniRun on = test::runBody(kPatchedScanEndBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kPatchedScanEndBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R12), 6);
    EXPECT_EQ(off.reg(Reg::R12), 6);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "patched scan end";

    // The stopping word opens the next gen page: the snapshot must
    // cover it, not only the block's own code.
    ASSERT_FALSE(isa::validLeadingWord(0));
    EngineRig rig;
    constexpr std::uint16_t kSlot = 0x8480;
    static_assert(kSlot % (1u << sim::PageGenTable::kPageShift) == 0);
    rig.machine.memory().write16(kSlot - 4, kAddR4R12);
    rig.machine.memory().write16(kSlot - 2, kAddR4R12);
    EXPECT_EQ(rig.length(kSlot - 4), 2u);
    rig.machine.bus().write16(kSlot, 0); // same bytes: kept
    EXPECT_EQ(rig.length(kSlot - 4), 2u);
    EXPECT_EQ(rig.stats.superblock_invalidations, 0u);
    rig.machine.bus().write16(kSlot, kAddR4R12);
    EXPECT_EQ(rig.length(kSlot - 4), 3u);
    EXPECT_EQ(rig.stats.superblock_invalidations, 1u);

    // So must it cover the operand word of a static-MMIO instruction
    // that stopped the scan: pointed at SRAM, the instruction joins.
    constexpr std::uint16_t kMmio = 0x8500;
    static_assert(kMmio % (1u << sim::PageGenTable::kPageShift) == 0);
    rig.machine.memory().write16(kMmio - 6, kAddR4R12);
    rig.machine.memory().write16(kMmio - 4, kAddR4R12);
    rig.machine.memory().write16(kMmio - 2, 0x4C82); // MOV R12, &...
    rig.machine.memory().write16(kMmio, 0x0100);     // ... console
    EXPECT_EQ(rig.length(kMmio - 6), 2u);
    rig.machine.bus().write16(kMmio, 0x2000);
    EXPECT_EQ(rig.length(kMmio - 6), 3u);
    EXPECT_EQ(rig.stats.superblock_invalidations, 2u);
}

constexpr std::uint16_t kXorR4R12 = 0xE40C; ///< XOR R4, R12

/** A rebuilt block keeps the block it replaced: code copied back
 *  to the address it was evicted from (SwapRAM under capacity
 *  pressure) revives that block instead of building it again, and a
 *  third content drops it. */
TEST(Threaded, RecopiedCodeRevivesTheReplacedBlock)
{
    EngineRig rig;
    constexpr std::uint16_t kAt = 0x8600;
    auto copyIn = [&](std::uint16_t w) {
        rig.machine.bus().write16(kAt, w);
        rig.machine.bus().write16(kAt + 2, w);
    };
    copyIn(kAddR4R12);
    const sim::SuperblockEngine::Block *a = rig.sb.lookup(kAt);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 1u);
    copyIn(kXorR4R12);
    const sim::SuperblockEngine::Block *b = rig.sb.lookup(kAt);
    EXPECT_NE(b, a);
    EXPECT_EQ(b->instrs[0].instr.op, isa::Op::Xor);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 2u);
    copyIn(kAddR4R12);
    EXPECT_EQ(rig.sb.lookup(kAt), a);
    copyIn(kXorR4R12);
    EXPECT_EQ(rig.sb.lookup(kAt), b);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 2u);
    EXPECT_EQ(rig.stats.superblock_invalidations, 3u);
    // A third content replaces b and drops a: a's bytes come back to a
    // fresh build.
    copyIn(kAddR4R12 + 1); // ADD R4, R13
    rig.sb.lookup(kAt);
    copyIn(kAddR4R12);
    EXPECT_EQ(rig.sb.lookup(kAt)->instrs[0].instr.op, isa::Op::Add);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 4u);
    // An image load revives nothing, whatever the bytes.
    rig.sb.invalidateAll();
    EXPECT_EQ(rig.sb.lookup(kAt)->instrs.size(), 2u);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 5u);
}

/** Deferred accounting: a chain enters each block's base and stall
 *  cycles at once and folds its other static totals, times the entry
 *  count, at chain end. A long loop of fast steps that ends in a
 *  dynamic-MMIO bail in the middle of the next block must fold the
 *  whole loop and take back only the instructions that did not
 *  retire. */
const char kLoopThenMmioBody[] =
    "        MOV #0x0100, R7\n" // console register, via register
    "        MOV #65, R6\n"
    "        MOV #150, R10\n"
    "lloop:  ADD #3, R11\n"
    "        XOR R11, R12\n"
    "        DEC R10\n"
    "        JNZ lloop\n"
    "        ADD #1, R6\n"
    "        MOV.B R6, 0(R7)\n" // bails with the ADD retired
    "        ADD #2, R6\n"
    "        MOV.B R6, 0(R7)\n";

TEST(Threaded, LoopEndingInMidBlockMmioBailMatchesOracle)
{
    test::MiniRun on = test::runBody(kLoopThenMmioBody, withThreaded(true));
    test::MiniRun off = test::runBody(kLoopThenMmioBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.machine->mmio().console(), "BD");
    EXPECT_EQ(off.machine->mmio().console(), "BD");
    EXPECT_EQ(on.reg(Reg::R12), off.reg(Reg::R12));
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "loop then mmio";
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
    EXPECT_GE(on.stats().threaded_dispatches, 150u);
    expectMostlyThreaded(on.stats(), "loop then mmio");
}

/** A cycle budget that runs out inside a long chain: the chain's
 *  deadline check must hand the last blocks to the oracle, so both
 *  tiers stop on the same cycle with the same Stats. */
const char kLongLoopBody[] =
    "        MOV #3000, R10\n"
    "bloop:  ADD #3, R11\n"
    "        XOR R11, R12\n"
    "        ADD &bword, R13\n"
    "        DEC R10\n"
    "        JNZ bloop\n"
    "        JMP bdone\n"
    "bword:  .word 7\n"
    "bdone:\n";

TEST(Threaded, CycleBudgetInsideLongChainMatchesOracle)
{
    test::MiniRun full = test::runBody(kLongLoopBody, withThreaded(true));
    ASSERT_TRUE(full.result.done);
    const std::uint64_t budget = full.stats().totalCycles() / 2 + 1;
    sim::MachineConfig on_cfg = withThreaded(true);
    sim::MachineConfig off_cfg = withThreaded(false);
    on_cfg.max_cycles = budget;
    off_cfg.max_cycles = budget;
    test::MiniRun on = test::runBody(kLongLoopBody, on_cfg);
    test::MiniRun off = test::runBody(kLongLoopBody, off_cfg);
    EXPECT_EQ(on.result.stop, sim::RunResult::Stop::MaxCycles);
    EXPECT_EQ(off.result.stop, sim::RunResult::Stop::MaxCycles);
    EXPECT_EQ(on.stats().totalCycles(), off.stats().totalCycles());
    EXPECT_GE(on.stats().totalCycles(), budget);
    EXPECT_EQ(on.reg(Reg::R10), off.reg(Reg::R10));
    EXPECT_EQ(on.reg(Reg::R13), off.reg(Reg::R13));
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "cycle budget";
    EXPECT_GT(on.stats().threaded_bail_boundary, 0u);
    expectMostlyThreaded(on.stats(), "cycle budget");
}

/** A loop that calls into the recovery range on every pass: once
 *  every block is lowered, the inline chain step must still stop at
 *  each crossing, because the whole chain's cycles are booked to the
 *  side it started on. */
const char kRecoveryCallBody[] =
    "        MOV #120, R10\n"
    "rloop:  ADD #1, R12\n"
    "        CALL #rfunc\n"
    "        DEC R10\n"
    "        JNZ rloop\n"
    "        JMP rdone\n"
    "rfunc:  ADD #2, R13\n"
    "        XOR R13, R14\n"
    "        RET\n"
    "rdone:\n";

TEST(Threaded, RecoveryBoundaryInsideLoopMatchesOracle)
{
    auto run = [](bool threaded) {
        test::MiniRun r;
        masm::LayoutSpec layout;
        layout.data_base = 0x2000;
        r.assembled = masm::assemble(
            masm::parse(test::wrapBody(kRecoveryCallBody)), layout);
        r.machine = std::make_unique<sim::Machine>(withThreaded(threaded));
        r.machine->load(r.assembled.image, 0x3000);
        r.machine->setRecoveryRange(r.assembled.symbol("rfunc"),
                                    r.assembled.symbol("rdone"));
        r.result = r.machine->run();
        return r;
    };
    test::MiniRun on = run(true);
    test::MiniRun off = run(false);
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R14), off.reg(Reg::R14));
    EXPECT_GT(off.stats().recovery_cycles, 0u);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "recovery boundary";
    expectMostlyThreaded(on.stats(), "recovery boundary");
}

/** Timer interrupts must land on exactly the same cycle: the chain
 *  must refuse any block whose worst-case bound could reach the fire
 *  cycle, handing back to the single-stepping machine loop. */
const char *kTimerProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #tick_isr, &0xFFF0
        EINT
        MOV #400, R10
fg_loop:
        MOV #13, R12
        ADD #29, R12
        XOR R12, &fg_acc
        DEC R10
        JNZ fg_loop
        DINT
        MOV &tick_count, R12
        MOV.B #0, &__DONE
__halt: JMP __halt

        .func tick_isr
        ADD #1, &tick_count
        RETI
        .endfunc

        .data
        .align 2
tick_count: .word 0
fg_acc:     .word 0
)";

TEST(Threaded, TimerInterruptsLandOnSameCycle)
{
    for (std::uint64_t period : {97ull, 500ull, 1024ull}) {
        sim::MachineConfig on_cfg = withThreaded(true);
        sim::MachineConfig off_cfg = withThreaded(false);
        on_cfg.timer_period_cycles = period;
        off_cfg.timer_period_cycles = period;
        test::MiniRun on = test::runSource(kTimerProgram, on_cfg);
        test::MiniRun off = test::runSource(kTimerProgram, off_cfg);
        ASSERT_TRUE(on.result.done);
        ASSERT_TRUE(off.result.done);
        std::string ctx = "timer period " + std::to_string(period);
        EXPECT_GT(on.stats().interrupts, 0u) << ctx;
        EXPECT_EQ(on.reg(Reg::R12), off.reg(Reg::R12)) << ctx;
        EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << ctx;
        expectMostlyThreaded(on.stats(), ctx);
    }
}

/** Power failures must hit on exactly the same cycle — the injector's
 *  next-failure cycle bounds every dispatched chain link. Data lives
 *  in FRAM so progress survives the reboots. */
const char *kFaultProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #300, R10
floop:  ADD #7, &acc
        XOR &acc, &mix
        DEC R10
        JNZ floop
        MOV.B #0, &__DONE
__halt: JMP __halt

        .data
        .align 2
acc:    .word 0
mix:    .word 0
)";

struct FaultRun {
    sim::Stats stats;
    std::uint16_t acc = 0;
    std::uint16_t mix = 0;
};

FaultRun
runFaulted(bool threaded)
{
    masm::LayoutSpec layout;
    layout.data_base = 0x9000;
    auto assembled = masm::assemble(masm::parse(kFaultProgram), layout);
    sim::Machine machine(withThreaded(threaded));
    machine.load(assembled.image, 0x3000);
    sim::FaultPlan plan = sim::FaultPlan::periodic(900, 5);
    sim::FaultInjector injector(plan);
    machine.setFaultInjector(&injector);
    auto result = machine.run();
    EXPECT_TRUE(result.done);
    return {machine.stats(), machine.peek16(assembled.symbol("acc")),
            machine.peek16(assembled.symbol("mix"))};
}

TEST(Threaded, InjectedFaultsLandOnSameCycle)
{
    FaultRun on = runFaulted(true);
    FaultRun off = runFaulted(false);
    EXPECT_EQ(on.stats.reboots, 5u);
    expectMostlyThreaded(on.stats, "fault");
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << "fault";
    EXPECT_EQ(on.acc, off.acc);
    EXPECT_EQ(on.mix, off.mix);
}

/** A power cycle (like a load, or new owner ranges) changes what a
 *  build makes without a store: every block is rebuilt after it, even
 *  though its code, in FRAM, reads exactly the same. */
TEST(Threaded, PowerCycleRebuildsBlocksWithEqualBytes)
{
    EngineRig rig;
    rig.machine.memory().write16(0x8400, kAddR4R12);
    EXPECT_EQ(rig.length(0x8400), 1u);
    EXPECT_EQ(rig.length(0x8400), 1u);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 1u);
    rig.sb.invalidateAll();
    EXPECT_EQ(rig.length(0x8400), 1u);
    EXPECT_EQ(rig.stats.superblock_blocks_built, 2u);
    EXPECT_EQ(rig.stats.superblock_invalidations, 1u);

    FaultRun on = runFaulted(true);
    FaultRun off = runFaulted(false);
    EXPECT_EQ(on.stats.reboots, 5u);
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << "power cycles";
    EXPECT_GE(on.stats.superblock_invalidations, on.stats.reboots);
}

/** A loop whose third block patches the immediate of its second, the
 *  first block's linked successor: the store lands outside the block
 *  that holds the link, and must still retire the link (through the
 *  code epoch), or the first block follows it into stale code. The
 *  jumps are indirect (`MOV Rn, PC`), so the blocks stay apart and
 *  linked instead of joining one trace. */
const char kPatchedLinkTargetBody[] =
    "        MOV #ktgt, R9\n"
    "        MOV #kpatch, R8\n"
    "        MOV #0, R12\n"
    "        MOV #50, R10\n"
    "kloop:  ADD #1, R13\n"
    "        MOV R9, PC\n"
    "ktgt:   ADD #100, R12\n"
    "        MOV R8, PC\n"
    "kpatch: ADD #1, &ktgt+2\n"
    "        DEC R10\n"
    "        JNZ kloop\n";

TEST(Threaded, StoreIntoLinkedSuccessorRebuildsIt)
{
    test::MiniRun on = test::runBody(kPatchedLinkTargetBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kPatchedLinkTargetBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    // 100 + 101 + ... + 149.
    EXPECT_EQ(on.reg(Reg::R12), 6225) << "stale linked kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 6225);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "patched link target";
    expectMostlyThreaded(on.stats(), "patched link target");
    EXPECT_GE(on.stats().superblock_invalidations, 49u);
}

/** Under a trace engine a chain keeps to one code owner and stops
 *  before checkpoint probes. Here the loop's blocks end in calls whose
 *  targets are linked once both sides are lowered: one into a
 *  Handler-owned function, one onto the commit probe, and the
 *  Handler's return back into application code. A linked entry must
 *  pass the same key and probe checks as a looked-up one, or the
 *  chain runs past an owner change or a probe and the events the
 *  machine emits between chains move. */
const char *kOwnerLinkProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #60, R10
oloop:  ADD #1, R12
        CALL #ofunc
        ADD R13, R14
        CALL #ockpt
        DEC R10
        JNZ oloop
        MOV.B #0, &__DONE
__halt: JMP __halt
ofunc:  ADD #2, R13
        XOR R13, R14
        RET
ockpt:  ADD #3, R15
        RET
)";

struct OwnerLinkRun {
    sim::Stats stats;
    std::vector<trace::Event> events;
    std::uint16_t r14 = 0;
};

OwnerLinkRun
runOwnerLinks(bool threaded)
{
    auto assembled = masm::assemble(masm::parse(kOwnerLinkProgram), {});
    sim::Machine machine(withThreaded(threaded));
    machine.load(assembled.image, 0x3000);
    machine.addOwnerRange(assembled.symbol("ofunc"),
                          assembled.symbol("ockpt"),
                          sim::CodeOwner::Handler);
    machine.setCkptProbe(assembled.symbol("ockpt"), 0);
    trace::TraceEngine engine(trace::kCatSwap | trace::kCatPower);
    machine.setTraceEngine(&engine);
    EXPECT_TRUE(machine.run().done);
    return {machine.stats(), engine.ring(),
            machine.cpu().reg(Reg::R14)};
}

TEST(Threaded, LinkedEntriesKeepOwnerAndProbeStops)
{
    OwnerLinkRun on = runOwnerLinks(true);
    OwnerLinkRun off = runOwnerLinks(false);
    EXPECT_EQ(on.r14, off.r14);
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << "owner links";
    expectMostlyThreaded(on.stats, "owner links");
    // Two owner changes and one probe per pass.
    ASSERT_GE(off.events.size(), 180u);
    ASSERT_EQ(on.events.size(), off.events.size());
    for (std::size_t i = 0; i < on.events.size(); ++i) {
        const trace::Event &a = on.events[i];
        const trace::Event &b = off.events[i];
        EXPECT_TRUE(a.cycle == b.cycle && a.kind == b.kind &&
                    a.byte == b.byte && a.addr == b.addr &&
                    a.value == b.value && a.extra == b.extra)
            << "event " << i << " differs: cycle " << a.cycle << " vs "
            << b.cycle << ", pc " << a.addr << " vs " << b.addr;
    }
}

/** Code in SRAM that patches its own second block once per boot,
 *  after the first pass has run it: a power cycle re-copies the
 *  unpatched bytes behind the bus while the patched block and the
 *  links into it are live, so the first pass after every reboot must
 *  add 5 again, not the patched 7. */
const char *kSramPatchProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #0, R12
        MOV #200, R10
qloop:  JMP qimm
qimm:   ADD #5, R12
        CMP #200, R10
        JNE qskip
        MOV #7, &qimm+2
qskip:  DEC R10
        JNZ qloop
        MOV.B #0, &__DONE
__halt: JMP __halt
)";

TEST(Threaded, PowerCycleRetiresLinksIntoRecopiedCode)
{
    auto run = [](bool threaded) {
        masm::LayoutSpec layout;
        layout.text_base = platform::kSramBase;
        layout.data_base = 0x9000;
        auto assembled =
            masm::assemble(masm::parse(kSramPatchProgram), layout);
        sim::Machine machine(withThreaded(threaded));
        machine.load(assembled.image, 0x3000);
        sim::FaultInjector injector(sim::FaultPlan::periodic(900, 5));
        machine.setFaultInjector(&injector);
        EXPECT_TRUE(machine.run().done);
        return std::make_pair(machine.stats(),
                              machine.cpu().reg(Reg::R12));
    };
    auto [on, on_r12] = run(true);
    auto [off, off_r12] = run(false);
    EXPECT_EQ(on.reboots, 5u);
    EXPECT_EQ(off_r12, 5 + 7 * 199);
    EXPECT_EQ(on_r12, off_r12) << "patched block survived a power cycle";
    EXPECT_EQ(on.simulated(), off.simulated()) << "sram patch power cycles";
    expectMostlyThreaded(on, "sram patch power cycles");
}

/** Data written now and then beside linked code: each store moves the
 *  code epoch and the page's generation, the blocks on that page are
 *  kept by their bytes, and the links between them form again until
 *  the next store. */
const char kStoreBesideLinksBody[] =
    "        MOV #400, R10\n"
    "dloop:  ADD #3, R11\n"
    "        JMP dnext\n"
    "dnext:  BIT #15, R10\n"
    "        JNZ dskip\n"
    "        ADD #3, &dcount\n"
    "dskip:  DEC R10\n"
    "        JNZ dloop\n"
    "        JMP ddone\n"
    "dcount: .word 0\n"
    "ddone:\n";

TEST(Threaded, StoreBesideLinkedCodeKeepsBlocks)
{
    test::MiniRun on = test::runBody(kStoreBesideLinksBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kStoreBesideLinksBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    const std::uint16_t count = on.assembled.symbol("dcount");
    ASSERT_EQ(count >> sim::PageGenTable::kPageShift,
              on.assembled.symbol("dloop") >> sim::PageGenTable::kPageShift);
    EXPECT_EQ(on.machine->peek16(count), 75);
    EXPECT_EQ(off.machine->peek16(count), 75);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "store beside links";
    expectMostlyThreaded(on.stats(), "store beside links");
    EXPECT_LT(on.stats().threaded_blocks_lowered, 10u);
    EXPECT_LT(on.stats().superblock_invalidations, 10u);
}

/** Capacity pressure: SRAM sizes where the SwapRAM runtime constantly
 *  evicts (arith_big/crc_big/pingpong) or tiles data through the pool
 *  (rc4_big). Chains repeatedly cross miss-handler entries,
 *  mid-eviction scans, and __swp_din/__swp_dout copy windows; the
 *  lowered code and the oracle must account every one of them
 *  identically. The oracle side keeps the swap timeline, which shows
 *  the windows are really there, and the observed side must
 *  reconstruct the same timeline. */
TEST(Threaded, EvictionAndDataSwapWindowsMatch)
{
    std::vector<harness::RunSpec> specs;
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::capacity()) {
        for (std::uint32_t sram : {1024u, 4096u}) {
            harness::RunSpec spec = harness::capacitySpec(
                w, harness::System::SwapRam, sram);
            names.push_back(w.name + "@" + std::to_string(sram));
            specs.push_back(fastSide(spec));
            specs.push_back(oracleSide(spec));
            specs.push_back(spec);
        }
    }
    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 3) {
        const std::string &key = names[i / 3];
        ASSERT_TRUE(outcomes[i].ok()) << key;
        ASSERT_TRUE(outcomes[i + 1].ok()) << key;
        ASSERT_TRUE(outcomes[i + 2].ok()) << key;
        const harness::Metrics &on = outcomes[i].metrics;
        const harness::Metrics &off = outcomes[i + 1].metrics;
        const harness::Metrics &obs = outcomes[i + 2].metrics;
        ASSERT_TRUE(on.fits) << key;
        ASSERT_TRUE(on.done) << key;
        EXPECT_EQ(on.checksum, off.checksum) << key;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << key;
        EXPECT_GT(off.swap_summary.copy_ins, 0u) << key;
        EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << key;
        expectMostlyThreaded(on.stats, key);
        EXPECT_EQ(obs.stats.simulated(), off.stats.simulated())
            << key + " observed";
        expectTimelineEqual(obs, off, key);
        expectCopyLoopThreaded(obs.stats, key);
    }
}

/** Harvest-driven brown-outs land mid-chain: the capacitor model
 *  decides the failure cycle from live consumption, so any divergence
 *  in accounting order would shift every subsequent reboot. Both runs
 *  must brown out, checkpoint, and converge (or honestly livelock)
 *  identically. */
TEST(Threaded, HarvestBrownOutMidChainMatches)
{
    workloads::Workload w = workloads::makeCrc();
    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = harness::System::SwapRam;
    spec.placement = harness::Placement::Standard;
    spec.sram_size = 1024; // starve the cache: misses keep committing
    spec.swap.ckpt.scheme = ckpt::Scheme::Periodic;
    spec.swap.ckpt.period = 1;

    harness::Engine engine;
    harness::RunOutcome ref = engine.runAll({spec}).front();
    ASSERT_TRUE(ref.ok()) << ref.error_text;
    ASSERT_TRUE(ref.metrics.fits) << ref.metrics.fit_note;
    ASSERT_TRUE(ref.metrics.done);

    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints(
            {{0.0, 30e-6}, {0.002, 80e-6}, {0.004, 20e-6}}));
    sim::CapacitorModel cap;
    cap.brown_out_pj = ref.metrics.energy_pj / 4;
    cap.power_on_pj = cap.brown_out_pj + ref.metrics.energy_pj / 6;
    cap.capacity_pj = cap.power_on_pj * 1.25;
    cap.initial_pj = cap.power_on_pj;
    cap.leak_watts = 1e-6;

    harness::RunSpec faulted = spec;
    faulted.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
    faulted.intermittent.livelock_boots = 16;

    std::vector<harness::RunOutcome> outcomes =
        engine.runAll({fastSide(faulted), oracleSide(faulted)});
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error_text;
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error_text;
    const harness::Metrics &on = outcomes[0].metrics;
    const harness::Metrics &off = outcomes[1].metrics;
    // The schedule must actually interrupt the run.
    EXPECT_GT(on.stats.reboots, 0u);
    ASSERT_EQ(on.stop, off.stop);
    ASSERT_EQ(on.done, off.done);
    EXPECT_EQ(on.checksum, off.checksum);
    EXPECT_EQ(on.data_snapshot, off.data_snapshot);
    EXPECT_EQ(on.energy_pj, off.energy_pj);
    EXPECT_EQ(on.harvested_pj, off.harvested_pj);
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << "harvest";
    expectMostlyThreaded(on.stats, "harvest");
}

/** The full golden matrix — the classic nine workloads × three systems
 *  at the platform default plus every capacity-pressure cell — on the
 *  threaded tier vs the oracle. Every simulated observable must agree
 *  on all 47 keys; golden_test.cc separately pins the absolute
 *  numbers. Each cache-system spec runs three ways: unobserved on the
 *  fast tier, with its swap timeline on the oracle, and with its swap
 *  timeline on the default tier, whose timeline must equal the
 *  oracle's. The interrupt and power-failure runs of
 *  interrupt_test.cc and power_fail_test.cc, which run on the default
 *  tier only, join the matrix here, as does a checkpointing Split
 *  placement under periodic faults (checkpoint probes and recovery
 *  events in the observed stream). */
TEST(Threaded, GoldenMatrixStatsEqualAcrossTiers)
{
    const harness::System systems[] = {harness::System::Baseline,
                                       harness::System::SwapRam,
                                       harness::System::BlockCache};
    std::vector<harness::RunSpec> specs;
    std::vector<std::string> names;
    auto push = [&](harness::RunSpec spec, const std::string &name) {
        spec.observe.swap_timeline =
            spec.system != harness::System::Baseline;
        names.push_back(name);
        specs.push_back(fastSide(spec));
        specs.push_back(oracleSide(spec));
        specs.push_back(spec);
    };
    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system : systems) {
            push(harness::sweepSpec(w, system),
                 w.name + "/" + harness::systemName(system) + "@" +
                     std::to_string(platform::kSramSize));
        }
    }
    for (const harness::MatrixCell &mc : harness::capacityMatrix()) {
        push(harness::capacitySpec(*mc.workload, mc.system,
                                   mc.sram_size),
             mc.workload->name + "/" +
                 harness::systemName(mc.system) + "@" +
                 std::to_string(mc.sram_size));
    }

    // Timer interrupts into cached code with a blacklisted FRAM ISR.
    workloads::Workload isr = test::swapIsrWorkload();
    isr.timer_period_cycles = 300;
    harness::RunSpec isr_spec;
    isr_spec.workload = &isr;
    isr_spec.system = harness::System::SwapRam;
    isr_spec.include_lib = false;
    isr_spec.swap.blacklist = {"tick_isr"};
    push(isr_spec, "isr/swapram");
    // A timer-driven workload rebooted before each third tick.
    workloads::Workload ticks = test::tickWaitWorkload();
    harness::RunSpec ticks_spec;
    ticks_spec.workload = &ticks;
    ticks_spec.include_lib = false;
    ticks_spec.intermittent.plan = sim::FaultPlan::periodic(400, 3);
    push(ticks_spec, "isrwl/baseline+faults");
    // Both cache runtimes' boot recovery across periodic reboots.
    workloads::Workload arith = workloads::makeArith();
    for (harness::System system :
         {harness::System::SwapRam, harness::System::BlockCache}) {
        harness::RunSpec spec;
        spec.workload = &arith;
        spec.system = system;
        spec.intermittent.plan = sim::FaultPlan::periodic(5'000, 6);
        push(spec, "arith/" + harness::systemName(system) + "+faults");
    }
    // Checkpoint commits at every miss, restored across reboots.
    workloads::Workload crc = workloads::makeCrc();
    harness::RunSpec ckpt_spec;
    ckpt_spec.workload = &crc;
    ckpt_spec.system = harness::System::SwapRam;
    ckpt_spec.placement = harness::Placement::Split;
    ckpt_spec.swap.ckpt.scheme = ckpt::Scheme::Periodic;
    ckpt_spec.swap.ckpt.period = 1;
    ckpt_spec.intermittent.plan = sim::FaultPlan::periodic(5'000, 6);
    const std::string ckpt_key = "crc/swapram+split+ckpt+faults";
    push(ckpt_spec, ckpt_key);

    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 3) {
        const std::string &key = names[i / 3];
        ASSERT_TRUE(outcomes[i].ok()) << key;
        ASSERT_TRUE(outcomes[i + 1].ok()) << key;
        ASSERT_TRUE(outcomes[i + 2].ok()) << key;
        const harness::Metrics &on = outcomes[i].metrics;
        const harness::Metrics &off = outcomes[i + 1].metrics;
        const harness::Metrics &obs = outcomes[i + 2].metrics;
        ASSERT_EQ(on.fits, off.fits) << key;
        ASSERT_EQ(obs.fits, off.fits) << key;
        if (!on.fits)
            continue;
        ASSERT_EQ(on.done, off.done) << key;
        ASSERT_EQ(obs.done, off.done) << key;
        EXPECT_EQ(on.checksum, off.checksum) << key;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << key;
        EXPECT_EQ(on.console, off.console) << key;
        EXPECT_EQ(on.energy_pj, off.energy_pj) << key;
        EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << key;
        expectMostlyThreaded(on.stats, key);
        EXPECT_EQ(obs.checksum, off.checksum) << key;
        EXPECT_EQ(obs.energy_pj, off.energy_pj) << key;
        EXPECT_EQ(obs.stats.simulated(), off.stats.simulated())
            << key + " observed";
        expectTimelineEqual(obs, off, key);
        // Baseline has no copy loop, and the timer-driven isr cell
        // single-steps around every tick, far more than its one short
        // copy: both fall back to the tier twins' own check.
        const harness::RunSpec &spec = specs[i + 2];
        if (spec.system == harness::System::Baseline ||
            spec.workload->timer_period_cycles)
            expectMostlyThreaded(obs.stats, key + " observed");
        else
            expectCopyLoopThreaded(obs.stats, key);
        if (key == ckpt_key) {
            // The observed stream really carries the probes and the
            // recovery spans.
            EXPECT_GT(obs.swap_summary.ckpt_commits, 0u);
            EXPECT_GT(obs.swap_summary.ckpt_restores, 0u);
            EXPECT_GT(obs.swap_summary.recovery_cycles, 0u);
        }
    }
}

/** The machine-readable RunReport must be byte-identical with the
 *  tier on vs off once the "host" object is erased — nothing else in
 *  the document (stats, profile-free metrics, swap summary, energy)
 *  may move. */
TEST(Threaded, RunReportByteIdenticalWithHostCountersMasked)
{
    workloads::Workload w = workloads::makeCrc();
    // Both sides keep the sweep spec's swap timeline: its report
    // sections (swap events, occupancy, trace counts) must match too.
    harness::RunSpec on_spec =
        harness::sweepSpec(w, harness::System::SwapRam);
    harness::RunSpec off_spec = oracleSide(on_spec);

    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll({on_spec, off_spec});
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error_text;
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error_text;

    support::json::Object on =
        harness::RunReport::make(on_spec, outcomes[0].metrics)
            .json()
            .asObject();
    support::json::Object off =
        harness::RunReport::make(off_spec, outcomes[1].metrics)
            .json()
            .asObject();
    EXPECT_NE(on.at("host").dump(), off.at("host").dump())
        << "host counters should differ across tiers";
    on.erase("host");
    off.erase("host");
    EXPECT_EQ(support::json::Value(on).dump(2),
              support::json::Value(off).dump(2));
    expectCopyLoopThreaded(outcomes[0].metrics.stats, "report");
}

/** A kernel twin's program: @p body after the standard startup, then
 *  the halt, then @p data in the data section. */
std::string
kernelSource(const std::string &body, const std::string &data)
{
    return "        .text\n"
           "__start:\n"
           "        MOV #0x3000, SP\n" +
           body +
           "        MOV.B #0, &__DONE\n"
           "__halt: JMP __halt\n"
           "        .data\n"
           "        .align 2\n" +
           data;
}

/** Memory-operand kernel twin: @p source on the threaded tier and on
 *  the oracle must leave the same registers, memory (every byte
 *  outside the MMIO window), console and simulated Stats; the fast
 *  side must retire most instructions threaded and none on the
 *  generic kernel, so the specialized kernels are what ran. */
test::MiniRun
expectKernelTwin(const std::string &source, const std::string &ctx,
                 masm::LayoutSpec layout = {})
{
    test::MiniRun on = test::runSource(source, withThreaded(true), layout);
    test::MiniRun off =
        test::runSource(source, withThreaded(false), layout);
    EXPECT_TRUE(on.result.done) << ctx;
    EXPECT_TRUE(off.result.done) << ctx;
    for (int r = 1; r < 16; ++r) {
        const Reg reg = isa::regFromIndex(static_cast<std::uint8_t>(r));
        EXPECT_EQ(on.reg(reg), off.reg(reg)) << ctx << " R" << r;
    }
    int mismatches = 0;
    for (std::uint32_t a = 0; a < 0x10000 && mismatches < 8; ++a) {
        if (a >= platform::kMmioBase && a < platform::kMmioEnd)
            continue;
        const auto addr = static_cast<std::uint16_t>(a);
        if (on.machine->peek8(addr) != off.machine->peek8(addr)) {
            ++mismatches;
            ADD_FAILURE() << ctx << ": memory differs at "
                          << support::hex16(addr);
        }
    }
    EXPECT_EQ(on.machine->mmio().console(), off.machine->mmio().console())
        << ctx;
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << ctx;
    expectMostlyThreaded(on.stats(), ctx);
    return on;
}

/** Ten words 0x1111, 0x2222, ... to copy around. */
const char kCopyWords[] =
    "src:    .word 0x1111, 0x2222, 0x3333, 0x4444, 0x5555\n"
    "        .word 0x6666, 0x7777, 0x8888, 0x9999, 0xAAAA\n"
    "dst:    .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n";

/** The copy loops' store with one register on both sides: ExecCore
 *  resolves the destination after the source's post-increment, so
 *  each pass copies a word one slot up and the first word smears over
 *  the buffer. Ignoring the increment would copy each word onto
 *  itself. */
TEST(Threaded, SameRegisterPostIncrementMatchesOracle)
{
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #src, R12\n"
                     "        MOV #8, R10\n"
                     "sloop:  MOV @R12+, 0(R12)\n"
                     "        DEC R10\n"
                     "        JNZ sloop\n"
                     "        MOV #dst, R13\n"
                     "        MOV #4, R10\n"
                     "aloop:  ADD @R13+, 0(R13)\n"
                     "        DEC R10\n"
                     "        JNZ aloop\n",
                     kCopyWords),
        "same register");
    const std::uint16_t src = on.assembled.symbol("src");
    EXPECT_EQ(on.machine->peek16(src + 16), 0x1111);
}

/** Byte copies through @Rn+ walk odd addresses on both sides. */
TEST(Threaded, ByteCopyMatchesOracle)
{
    expectKernelTwin(kernelSource("        MOV #src+1, R13\n"
                                  "        MOV #dst+3, R12\n"
                                  "        MOV #11, R10\n"
                                  "bloop:  MOV.B @R13+, 0(R12)\n"
                                  "        INC R12\n"
                                  "        DEC R10\n"
                                  "        JNZ bloop\n"
                                  "        MOV #src, R13\n"
                                  "        MOV.B @R13+, 1(R13)\n"
                                  "        XOR.B @R13+, -1(R13)\n",
                                  kCopyWords),
                     "byte copy");
}

/** Every Format I op with a memory source and a register-based
 *  destination: read-modify-write, flag-only (CMP, BIT), carry in
 *  (ADDC, SUBC, DADD) and byte forms, with @Rn+, @Rn and Indexed
 *  sources. */
TEST(Threaded, MemoryToMemoryAluMatchesOracle)
{
    expectKernelTwin(kernelSource("        MOV #src, R13\n"
                                  "        MOV #dst, R12\n"
                                  "        MOV #4, R10\n"
                                  "rloop:  ADD @R13+, 0(R12)\n"
                                  "        ADDC 2(R13), 2(R12)\n"
                                  "        XOR @R13, 4(R12)\n"
                                  "        CMP @R13, 0(R12)\n"
                                  "        SUBC.B 1(R13), 1(R12)\n"
                                  "        BIC 0(R13), 6(R12)\n"
                                  "        BIS.B @R13, 3(R12)\n"
                                  "        DADD @R13, 8(R12)\n"
                                  "        AND 2(R13), 10(R12)\n"
                                  "        BIT @R13, 12(R12)\n"
                                  "        SUB @R13+, 14(R12)\n"
                                  "        SUB -4(R13), 16(R12)\n"
                                  "        DEC R10\n"
                                  "        JNZ rloop\n",
                                  kCopyWords),
                     "mem to mem alu");
}

/** Static and register-based operands mixed on either side, and
 *  static to static (ADD/ADDC &a, &b, the runtime's 32-bit counters). */
TEST(Threaded, StaticMemoryOperandsMatchOracle)
{
    expectKernelTwin(kernelSource("        MOV #src, R13\n"
                                  "        MOV #dst, R12\n"
                                  "        MOV #5, R10\n"
                                  "tloop:  MOV 4(R13), &dst+20\n"
                                  "        ADD &src+6, 2(R12)\n"
                                  "        ADD &src, &dst\n"
                                  "        ADDC &src+2, &dst+2\n"
                                  "        MOV.B &src+3, &dst+5\n"
                                  "        XOR @R13+, &dst+8\n"
                                  "        CMP &dst, &src\n"
                                  "        NOP\n"
                                  "        DEC R10\n"
                                  "        JNZ tloop\n",
                                  kCopyWords),
                     "static operands");
}

/** A register-based store into MMIO: the destination pre-check bails
 *  before the source's post-increment commits, and the oracle then
 *  writes the console once per byte. */
TEST(Threaded, MemoryToMmioBailsAndMatchesOracle)
{
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #text, R13\n"
                     "        MOV #0x0100, R12\n" // console register
                     "        MOV #5, R10\n"
                     "mloop:  MOV.B @R13+, 0(R12)\n"
                     "        DEC R10\n"
                     "        JNZ mloop\n",
                     "text:   .byte 72, 69, 76, 76, 79\n"),
        "mmio destination");
    EXPECT_EQ(on.machine->mmio().console(), "HELLO");
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
}

/** A register-based copy onto the next instruction of its own block:
 *  the store commits, then the chain must stop instead of running the
 *  stale lowered ADD #1. */
TEST(Threaded, MemoryToMemoryStoreIntoOwnBlockMatchesOracle)
{
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #0, R11\n"
                     "        MOV #3, R10\n"
                     "        MOV #ptmpl, R13\n"
                     "        MOV #ppatch, R12\n"
                     "ploop:  MOV @R13, 0(R12)\n"
                     "ppatch: ADD #1, R11\n"
                     "        DEC R10\n"
                     "        JNZ ploop\n"
                     "        JMP pdone\n"
                     "ptmpl:  ADD #2, R11\n"
                     "pdone:\n",
                     ""),
        "smc copy");
    EXPECT_EQ(on.reg(Reg::R11), 6) << "stale lowered kernel executed";
    EXPECT_GT(on.stats().threaded_bail_smc, 0u);
}

/** ADD &a, &b onto the immediate of the next instruction in its own
 *  block: every pass must add the freshly patched immediate. */
TEST(Threaded, StaticToStaticStoreIntoOwnBlockMatchesOracle)
{
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #0, R12\n"
                     "        MOV #5, R10\n"
                     "qloop:  ADD &delta, &qimm+2\n"
                     "qimm:   ADD #100, R12\n"
                     "        DEC R10\n"
                     "        JNZ qloop\n",
                     "delta:  .word 3\n"),
        "smc static");
    // 103 + 106 + 109 + 112 + 115.
    EXPECT_EQ(on.reg(Reg::R12), 545) << "stale lowered kernel executed";
    EXPECT_GT(on.stats().threaded_bail_smc, 0u);
}

/** FRAM to FRAM copies from FRAM code: the fetch stream, the source
 *  read and the store form one contention chain, with source and
 *  destination on one 8-byte line and on different lines. */
TEST(Threaded, FramToFramCopyMatchesOracle)
{
    masm::LayoutSpec layout;
    layout.data_base = 0x9000;
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #src, R13\n"
                     "        MOV #src+2, R12\n"
                     "        MOV #3, R10\n"
                     "floop:  MOV @R13+, 0(R12)\n"
                     "        INCD R12\n"
                     "        DEC R10\n"
                     "        JNZ floop\n"
                     "        MOV #src, R13\n"
                     "        MOV #dst, R12\n"
                     "        MOV #10, R10\n"
                     "gloop:  MOV @R13+, 0(R12)\n"
                     "        ADD @R13, 2(R12)\n"
                     "        INCD R12\n"
                     "        DEC R10\n"
                     "        JNZ gloop\n",
                     kCopyWords),
        "fram to fram", layout);
    EXPECT_GT(on.stats().fram.write, 20u);
    EXPECT_GT(on.stats().stall_cycles, 0u);
}

/** CALL &abs, SwapRAM's redirect call, with SP two bytes above the
 *  SRAM base: the return address lands on the lowest SRAM word, which
 *  the stack-slot pre-check must accept. The other call and push
 *  forms take their operand from registers, with and without
 *  post-increment (of SP too). */
TEST(Threaded, CallAndPushOnMemoryOperandsMatchOracle)
{
    masm::LayoutSpec layout;
    layout.data_base = 0x2400;
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #0x2002, SP\n"
                     "        MOV #4, R10\n"
                     "cloop:  CALL &fptr\n"
                     "        DEC R10\n"
                     "        JNZ cloop\n"
                     "        MOV #0x3000, SP\n"
                     "        MOV #2, R10\n"
                     "dloop:  MOV #fptr, R5\n"
                     "        CALL @R5\n"
                     "        CALL 0(R5)\n"
                     "        PUSH &fptr\n"
                     "        CALL @SP+\n"
                     "        PUSH @R5+\n"
                     "        PUSH.B -1(R5)\n"
                     "        PUSH 0(SP)\n"
                     "        PUSH @SP+\n"
                     "        ADD #6, SP\n"
                     "        SUB #2, R5\n"
                     "        CALL @R5+\n"
                     "        DEC R10\n"
                     "        JNZ dloop\n"
                     "        JMP cdone\n"
                     "cfunc:  ADD #5, R12\n"
                     "        RET\n"
                     "cdone:\n",
                     "fptr:   .word cfunc\n"),
        "call and push", layout);
    EXPECT_EQ(on.reg(Reg::R12), 60); // twelve calls
}

/** RRC/RRA/SWPB/SXT rewriting a memory operand in place, byte and
 *  word, through static, Indexed, @Rn and @Rn+ operands. */
TEST(Threaded, SingleOperandMemoryFormsMatchOracle)
{
    expectKernelTwin(kernelSource("        MOV #src, R13\n"
                                  "        MOV #4, R10\n"
                                  "uloop:  RRC &src\n"
                                  "        RRA 2(R13)\n"
                                  "        RRC.B 5(R13)\n"
                                  "        RRA.B @R13\n"
                                  "        SWPB 6(R13)\n"
                                  "        SXT &src+8\n"
                                  "        SXT @R13\n"
                                  "        SWPB @R13+\n"
                                  "        RRC @R13+\n"
                                  "        RRA.B @R13+\n"
                                  "        INC R13\n"
                                  "        DEC R10\n"
                                  "        JNZ uloop\n",
                                  kCopyWords),
                     "single operand memory");
}

/** Flag-setting ops with SR as the destination store their result
 *  into SR first and then write N, Z, C and V over it, as the oracle
 *  does; a byte store clears SR's high byte before V lands in bit 8.
 *  Each op starts from a known SR and R12/R13 fold every SR it leaves
 *  (a Fletcher-style checksum), so one wrong flag or order shows. The
 *  operands never set GIE, CPUOFF or OSCOFF. A byte op can only
 *  overflow into a negative result, so the two byte forms that set V
 *  leave bit 7 (SCG1) set until the next MOV; the model gives that bit
 *  no meaning. */
TEST(Threaded, AluIntoSrMatchesOracle)
{
    auto step = [](const char *init, const char *op) {
        return std::string("        MOV #") + init + ", SR\n        " + op +
               "\n        ADD SR, R12\n        ADD R12, R13\n";
    };
    std::string body = "        MOV #0xC000, R5\n"
                       "        MOV #0x8000, R6\n"
                       "        MOV #sword, R7\n"
                       "        MOV #20, R10\n"
                       "srloop:\n";
    // Word forms, V set by ADD, SUB and XOR; register, immediate,
    // @Rn and absolute sources.
    body += step("0x4000", "ADD #0x4000, SR");
    body += step("0x4000", "ADD R5, SR");
    body += step("0x4000", "ADD @R7, SR");
    body += step("0x0002", "SUB #0x4000, SR");
    body += step("0", "SUB R6, SR");
    body += step("0x8000", "XOR R6, SR");
    body += step("0xC003", "AND #0x8001, SR");
    body += step("0xC003", "AND &sword, SR");
    body += step("0x0100", "BIT #0x0100, SR");
    body += step("0x8107", "BIC #0x0103, SR");
    body += step("0", "BIS #0x4101, SR");
    body += step("0x4001", "RRC SR");
    body += step("0x8004", "RRA SR");
    body += step("0x4105", "SXT SR");
    // Byte forms: V set by ADD.B and SUB.B, cleared with the high byte
    // by XOR.B, AND.B, BIC.B, BIS.B, RRC.B and RRA.B.
    body += step("0x0007", "ADD.B #0x7C, SR");
    body += step("0x0001", "SUB.B #0x81, SR");
    body += step("0x0106", "XOR.B #0x03, SR");
    body += step("0x8107", "AND.B #0x05, SR");
    body += step("0x4102", "BIT.B #0x02, SR");
    body += step("0x8107", "BIC.B #0x02, SR");
    body += step("0x8100", "BIS.B #0x03, SR");
    body += step("0x0102", "RRC.B SR");
    body += step("0x0107", "RRA.B SR");
    body += "        DEC R10\n"
            "        JNZ srloop\n";
    test::MiniRun on = expectKernelTwin(
        kernelSource(body, "sword:  .word 0x4000\n"), "alu into sr");
    EXPECT_NE(on.reg(Reg::R13), 0);
}

/** MOV @PC, Rn reads the word after the instruction: inside a block
 *  the PC register still holds the instruction's own address, so a
 *  PC-based operand has no kernel and its block ends before it. */
TEST(Threaded, IndirectPcSourceMatchesOracle)
{
    const std::string source =
        kernelSource("        MOV #3, R10\n"
                     "iloop:  .word 0x4025\n" // MOV @PC, R5
                     "        MOV #0x1234, R6\n"
                     "        ADD R5, R7\n"
                     "        DEC R10\n"
                     "        JNZ iloop\n",
                     "");
    test::MiniRun on = test::runSource(source, withThreaded(true));
    test::MiniRun off = test::runSource(source, withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(off.reg(Reg::R5), 0x4036); // MOV #imm, R6
    EXPECT_EQ(on.reg(Reg::R5), off.reg(Reg::R5));
    EXPECT_EQ(on.reg(Reg::R7), off.reg(Reg::R7));
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << "mov @pc";
    expectMostlyThreaded(on.stats(), "mov @pc");
}

// ---- Flag and PC liveness, fused compare-and-branch -----------------

/** Operand pairs for the flag tests: zero, carry, overflow both ways,
 *  negative, equal and byte-boundary results. */
const char kFlagPairs[] =
    "pairs:  .word 0x0000, 0x0000, 0x7FFF, 0x0001, 0x8000, 0x8000\n"
    "        .word 0xFFFF, 0x0001, 0x0001, 0xFFFF, 0x1234, 0x1234\n"
    "        .word 0x8000, 0x7FFF, 0x00FF, 0x0001, 0x0080, 0x0080\n"
    "        .word 0x5555, 0xAAAA, 0x0F0F, 0x00F0, 0x7F7F, 0x0101\n";

/** A loop over the 12 operand pairs: R5 and R6 hold a pair when @p body
 *  runs; R12..R14 are its checksum registers. */
std::string
pairLoop(const std::string &label, const std::string &body)
{
    return "        MOV #pairs, R11\n"
           "        MOV #12, R10\n" +
           label + ":\n"
           "        MOV @R11+, R5\n"
           "        MOV @R11+, R6\n" +
           body +
           "        DEC R10\n"
           "        JZ " + label + "_end\n"
           "        MOV #" + label + ", PC\n" // beyond a jump's reach
           + label + "_end:\n";
}

/** Writers whose flags the block overwrites unread run flagless (or as
 *  kNop for CMP and BIT), through neutral ops (MOV, BIC, BIS, SWPB and
 *  a JMP the trace follows) before an overwriter or a reader. */
TEST(Threaded, DeadFlagWritersMatchOracle)
{
    const std::string body = "        ADD R5, R7\n"   // dead: CMP next
                             "        CMP R5, R6\n"   // read by ADDC
                             "        MOV R5, R8\n"
                             "        BIC #1, R8\n"
                             "        BIS #4, R8\n"
                             "        SWPB R8\n"
                             "        JMP fw1\n"
                             "        NOP\n"
                             "fw1:    ADDC R8, R12\n" // reads C
                             "        XOR R6, R9\n"   // dead: AND next
                             "        AND #0x0FF0, R9\n"
                             "        CMP R9, R5\n"   // dead: BIT next
                             "        BIT R5, R6\n"   // dead: ADD next
                             "        MOV R9, R15\n"
                             "        ADD R6, R15\n"
                             "        MOV SR, R14\n"  // reads all four
                             "        ADD R14, R13\n"
                             "        ADD R15, R13\n";
    expectKernelTwin(kernelSource(pairLoop("dloop", body), kFlagPairs),
                     "dead flag writers");
}

/** Every reader keeps the flags before it live: the carry-in ops, an SR
 *  source (PUSH SR, MOV SR, Rn), and a writer whose flags reach the
 *  block end. R8 and R9 sum R12 and R13 after each reader. */
TEST(Threaded, FlagReadersKeepTheirWritersMatchOracle)
{
    std::string body;
    for (const char *reader :
         {"ADDC R6, R12", "SUBC R5, R12", "DADD R6, R13", "RRC R13",
          "ADDC.B R6, R12", "SUBC.B R5, R13", "DADD.B R5, R13",
          "RRC.B R12", "MOV SR, R14\n        ADD R14, R13",
          "PUSH SR\n        POP R14\n        ADD R14, R12"}) {
        // Word sums keep every reader's result to the end.
        body += std::string("        ADD R5, R6\n"
                            "        ") + reader + "\n"
                "        ADD R12, R8\n"
                "        ADD R13, R9\n";
    }
    body += "        SUB R5, R13\n"; // flags live at the block end
    expectKernelTwin(kernelSource(pairLoop("rloop", body), kFlagPairs),
                     "flag readers");
}

/** A writer before an operand bail-out (a store into MMIO) or an own-
 *  block SMC store, then an overwriter: the chain stops between them,
 *  so the writer keeps its flags. */
TEST(Threaded, FlagWritersBeforeStopsMatchOracle)
{
    const std::string body = "        ADD R5, R6\n"
                             "        MOV.B R6, 0(R4)\n" // MMIO: bails
                             "        SUB R5, R6\n"
                             "        ADD R6, R13\n"
                             "        XOR R5, R6\n"
                             "        MOV R6, &spatch+2\n" // own code
                             "spatch: ADD #0x1234, R12\n" // not a CG
                             "        AND R5, R6\n"
                             "        ADD R6, R13\n";
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #0x0100, R4\n" + // console register
                         pairLoop("bloop", body),
                     kFlagPairs),
        "writers before stops");
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
    EXPECT_GT(on.stats().threaded_bail_smc, 0u);
}

/** Every conditional jump right after each flag-setting op that fuses
 *  with it (word and byte forms, SR among the operands too): as a side
 *  exit (forward) and as the block's last op (backward). R12 counts
 *  the taken jumps. */
std::string
fusedJumpMatrix()
{
    std::string body;
    int k = 0;
    const char *jumps[] = {"JNE", "JEQ", "JNC", "JC", "JN", "JGE", "JL"};
    for (const char *op : {"CMP", "BIT", "SUB", "ADD", "AND", "XOR",
                           "ADDC"}) {
        for (const char *sfx : {"", ".B"}) {
            for (const char *j : jumps) {
                const std::string n = std::to_string(k++);
                const std::string alu = std::string("        ") + op +
                                        sfx + " R5, R7\n";
                // Side exit: the block goes on after a forward jump.
                body += "        MOV R6, R7\n" + alu + "        " + j +
                        " fx" + n + "\n"
                        "        ADD R7, R13\n"
                        "        JMP fy" + n + "\n"
                        "fx" + n + ":   INC R12\n"
                        "fy" + n + ":   ADD R7, R14\n";
                // Last op: a backward jump ends the block.
                body += "        JMP fb" + n + "\n"
                        "fa" + n + ":   INC R12\n"
                        "        JMP fc" + n + "\n"
                        "fb" + n + ":   MOV R6, R7\n" + alu +
                        "        " + j + " fa" + n + "\n"
                        "fc" + n + ":   ADD R7, R13\n";
            }
        }
    }
    // SR as the destination: read (CMP, BIT) and written (AND).
    for (const char *j : jumps) {
        const std::string n = std::to_string(k++);
        body += "        MOV R5, R7\n"
                "        AND #0x0107, R7\n"
                "        MOV R7, SR\n"
                "        BIT #2, SR\n"
                "        " + std::string(j) + " fx" + n + "\n"
                "        AND #0x0105, SR\n"
                "        " + j + " fx" + n + "\n"
                "        CMP R6, SR\n"
                "        " + j + " fx" + n + "\n"
                "        INC R13\n"
                "fx" + n + ":   ADD SR, R14\n";
    }
    return body;
}

TEST(Threaded, FusedCompareAndBranchMatchesOracle)
{
    test::MiniRun on = expectKernelTwin(
        kernelSource(pairLoop("jloop", fusedJumpMatrix()), kFlagPairs),
        "fused jumps");
    EXPECT_NE(on.reg(Reg::R12), 0);
}

/** The same matrix with code and data in FRAM: side exits and the
 *  pair loads' probes must leave exact hardware-cache hit and miss
 *  counts (the statics book every probe as a hit). */
TEST(Threaded, FramSideExitsCountExactHitsAndMisses)
{
    masm::LayoutSpec layout;
    layout.data_base = 0x9000; // FRAM data
    const std::string body = "        MOV &pairs+2, R8\n" + // static probe
                             fusedJumpMatrix() +
                             "        MOV.B R8, 0(R4)\n"; // MMIO: bails
    test::MiniRun on = expectKernelTwin(
        kernelSource("        MOV #0x0100, R4\n" + pairLoop("hloop", body),
                     kFlagPairs),
        "fram side exits", layout);
    EXPECT_GT(on.stats().fram_cache_misses, 0u);
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
}

/** The PC that reaches a PC source, PUSH PC and a PC read-modify-write
 *  destination after register kernels that no longer store it. */
TEST(Threaded, PcReadsAfterElidedStoresMatchOracle)
{
    const std::string body = "        ADD R5, R7\n"
                             "        MOV PC, R8\n"
                             "        ADD R8, R13\n"
                             "        XOR R6, R7\n"
                             "        PUSH PC\n"
                             "        POP R8\n"
                             "        ADD R8, R14\n"
                             "        SUB R6, R7\n"
                             "        ADD #2, PC\n"
                             "        INC R12\n" // skipped
                             "        ADD R7, R13\n";
    test::MiniRun on = expectKernelTwin(
        kernelSource(pairLoop("ploop", body), kFlagPairs), "pc reads");
    EXPECT_EQ(on.reg(Reg::R12), 0);
}

// ---- Traces: blocks joined across JMP, BR #imm and CALL #imm --------

/** Four blocks joined by JMPs form one trace: each pass of the loop is
 *  one dispatch, with the JMPs run as ordinary ops inside it (as four
 *  blocks a pass would take four). */
const char kJoinedLoopBody[] =
    "        MOV #200, R10\n"
    "jl0:    ADD #1, R12\n"
    "        JMP jl2\n"
    "jl1:    XOR R12, R13\n"
    "        JMP jl3\n"
    "jl2:    ADD R12, R14\n"
    "        JMP jl1\n"
    "jl3:    RRA R13\n"
    "        DEC R10\n"
    "        JNZ jl0\n";

TEST(Threaded, JoinedBlocksRunOneDispatchPerPass)
{
    test::MiniRun on = test::runBody(kJoinedLoopBody, withThreaded(true));
    test::MiniRun off = test::runBody(kJoinedLoopBody, withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    for (Reg r : {Reg::R12, Reg::R13, Reg::R14})
        EXPECT_EQ(on.reg(r), off.reg(r));
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "joined loop";
    expectMostlyThreaded(on.stats(), "joined loop");
    EXPECT_GE(on.stats().threaded_dispatches, 200u);
    EXPECT_LE(on.stats().threaded_dispatches, 202u);
}

/** A store inside a trace into the code of one of its later segments:
 *  the static SMC check covers every segment, so the store bails (and
 *  the next pass rebuilds), or the stale immediate is added. */
const char kSmcLaterSegmentBody[] =
    "        MOV #0, R12\n"
    "        MOV #50, R10\n"
    "        JMP sloop\n"
    "stgt:   ADD #100, R12\n"
    "        DEC R10\n"
    "        JNZ sloop\n"
    "        JMP sdone\n"
    "sloop:  ADD #1, &stgt+2\n"
    "        JMP stgt\n"
    "sdone:\n";

TEST(Threaded, StoreIntoLaterSegmentBailsAsSmc)
{
    test::MiniRun on = test::runBody(kSmcLaterSegmentBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kSmcLaterSegmentBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    // 101 + 102 + ... + 150.
    EXPECT_EQ(on.reg(Reg::R12), 6275) << "stale lowered kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 6275);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "smc later segment";
    expectMostlyThreaded(on.stats(), "smc later segment");
    EXPECT_GE(on.stats().threaded_bail_smc, 50u);
}

/** The same patch from a block outside the trace: the store moves the
 *  generation of a page the trace's later segment lies on, so the
 *  trace is rebuilt by its bytes on every pass. Its JMP joins two
 *  segments, so a pass is two dispatches (three as plain blocks). */
const char kStoreIntoLaterSegmentBody[] =
    "        MOV #ejmp, R9\n"
    "        MOV #0, R12\n"
    "        MOV #50, R10\n"
    "eloop:  ADD #1, &etgt+2\n"
    "        MOV R9, PC\n"
    "ejmp:   JMP etgt\n"
    "        ADD #5, R15\n"
    "etgt:   ADD #100, R12\n"
    "        DEC R10\n"
    "        JNZ eloop\n";

TEST(Threaded, StoreIntoLaterSegmentRebuildsTheTrace)
{
    test::MiniRun on = test::runBody(kStoreIntoLaterSegmentBody,
                                     withThreaded(true));
    test::MiniRun off = test::runBody(kStoreIntoLaterSegmentBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R12), 6275) << "stale lowered kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 6275);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "store into segment";
    expectMostlyThreaded(on.stats(), "store into segment");
    EXPECT_GE(on.stats().superblock_invalidations, 49u);
    EXPECT_LE(on.stats().threaded_dispatches, 2u * 50 + 2);
}

/** The later segment lies on another gen page than the trace's start,
 *  and a block outside the trace rewrites it: the trace must have
 *  stamped that page too, or the store never moves the trace's epoch
 *  and the stale immediate keeps being added. */
const char kFarSegmentBody[] =
    "        MOV #fjmp, R9\n"
    "        MOV #0, R12\n"
    "        MOV #50, R10\n"
    "floop:  ADD #1, &ftgt+2\n"
    "        MOV R9, PC\n"
    "fjmp:   JMP ftgt\n"
    "        .space 128\n"
    "ftgt:   ADD #100, R12\n"
    "        DEC R10\n"
    "        JNZ floop\n";

TEST(Threaded, RewrittenSegmentOnAnotherPageRebuildsTheTrace)
{
    test::MiniRun on = test::runBody(kFarSegmentBody, withThreaded(true));
    test::MiniRun off = test::runBody(kFarSegmentBody, withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    ASSERT_NE(on.assembled.symbol("fjmp") >> sim::PageGenTable::kPageShift,
              on.assembled.symbol("ftgt") >> sim::PageGenTable::kPageShift);
    EXPECT_EQ(on.reg(Reg::R12), 6275) << "stale lowered kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 6275);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "far segment";
    expectMostlyThreaded(on.stats(), "far segment");
    EXPECT_GE(on.stats().superblock_invalidations, 49u);
    EXPECT_LE(on.stats().threaded_dispatches, 2u * 50 + 2);
}

/** The block cache chains its blocks with BR #imm and patches the
 *  immediate when a successor moves. Here a block outside the trace
 *  flips a BR between two targets on every pass: the trace that
 *  follows the BR is rebuilt (or revived, the flip's other content
 *  being the block its last rebuild replaced) and must take the new
 *  target. */
const char kPatchedBranchBody[] =
    "        MOV #bbr, R9\n"
    "        MOV #0, R12\n"
    "        MOV #40, R10\n"
    "bloop:  MOV #pa, &bbr+2\n"
    "        BIT #1, R10\n"
    "        JZ bgo\n"
    "        MOV #pb, &bbr+2\n"
    "bgo:    MOV R9, PC\n"
    "bbr:    BR #pa\n"
    "        ADD #5, R15\n"
    "pa:     ADD #1, R12\n"
    "        JMP bnext\n"
    "pb:     ADD #100, R12\n"
    "bnext:  DEC R10\n"
    "        JNZ bloop\n";

TEST(Threaded, PatchedBranchImmediateRetargetsTheTrace)
{
    test::MiniRun on = test::runBody(kPatchedBranchBody, withThreaded(true));
    test::MiniRun off = test::runBody(kPatchedBranchBody,
                                      withThreaded(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R12), 20 * 100 + 20 * 1);
    EXPECT_EQ(off.reg(Reg::R12), 20 * 100 + 20 * 1);
    EXPECT_EQ(on.stats().simulated(), off.stats().simulated())
        << "patched branch";
    expectMostlyThreaded(on.stats(), "patched branch");
    EXPECT_GE(on.stats().superblock_invalidations, 39u);
    // bloop, bgo on even passes, then one trace through the BR (as
    // plain blocks the BR, pa and bnext would add a dispatch each).
    EXPECT_LE(on.stats().threaded_dispatches, 40u * 5 / 2 + 2);
}

/** A JMP into another owner's range ends the trace: a block keeps one
 *  owner, whose instructions it pre-attributes. With no trace engine
 *  the chain itself may cross the owner change, so only the trace's
 *  stop keeps instr_by_owner equal to the oracle's. */
const char *kOwnerJumpProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #60, R10
wloop:  ADD #1, R12
        JMP wmid
        ADD #5, R15
wmid:   XOR R12, R13
        JMP hfunc
wback:  DEC R10
        JNZ wloop
        MOV.B #0, &__DONE
__halt: JMP __halt
hfunc:  ADD #2, R14
        JMP wback
hend:
)";

TEST(Threaded, JumpIntoAnotherOwnerEndsTheTrace)
{
    auto run = [](bool threaded) {
        auto assembled =
            masm::assemble(masm::parse(kOwnerJumpProgram), {});
        sim::Machine machine(withThreaded(threaded));
        machine.load(assembled.image, 0x3000);
        machine.addOwnerRange(assembled.symbol("hfunc"),
                              assembled.symbol("hend"),
                              sim::CodeOwner::Handler);
        EXPECT_TRUE(machine.run().done);
        return std::make_pair(machine.stats(),
                              machine.cpu().reg(Reg::R14));
    };
    auto [on, on_r14] = run(true);
    auto [off, off_r14] = run(false);
    EXPECT_EQ(on_r14, off_r14);
    EXPECT_EQ(off.instr_by_owner[static_cast<int>(sim::CodeOwner::Handler)],
              2u * 60);
    EXPECT_EQ(on.simulated(), off.simulated()) << "owner jump";
    expectMostlyThreaded(on, "owner jump");
    // wloop..wmid as one trace, then hfunc and wback.
    EXPECT_LE(on.threaded_dispatches, 3u * 60 + 2);
}

/** A CALL #imm whose target is a checkpoint probe: the trace joins the
 *  probed routine as its second segment. Unobserved, a pass is two
 *  dispatches; under a trace engine the chain must stop before the
 *  probe (no block may run into it past its first instruction), so the
 *  probe events land on the oracle's cycles. */
const char *kProbeSegmentProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #60, R10
ploop:  ADD #1, R12
        CALL #pfunc
        DEC R10
        JNZ ploop
        MOV.B #0, &__DONE
__halt: JMP __halt
pfunc:  ADD #3, R15
        RET
)";

TEST(Threaded, ProbeInLaterSegmentStopsTracedChains)
{
    auto run = [](bool threaded, bool traced) {
        auto assembled =
            masm::assemble(masm::parse(kProbeSegmentProgram), {});
        sim::Machine machine(withThreaded(threaded));
        machine.load(assembled.image, 0x3000);
        machine.setCkptProbe(assembled.symbol("pfunc"), 0);
        trace::TraceEngine engine(trace::kCatSwap | trace::kCatPower);
        if (traced)
            machine.setTraceEngine(&engine);
        EXPECT_TRUE(machine.run().done);
        return OwnerLinkRun{machine.stats(), engine.ring(),
                            machine.cpu().reg(Reg::R14)};
    };
    OwnerLinkRun plain = run(true, false);
    OwnerLinkRun on = run(true, true);
    OwnerLinkRun off = run(false, true);
    EXPECT_EQ(plain.stats.simulated(), off.stats.simulated())
        << "probe segment plain";
    expectMostlyThreaded(plain.stats, "probe segment plain");
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated())
        << "probe segment traced";
    expectMostlyThreaded(on.stats, "probe segment traced");
    // A trace does not follow the CALL onto the probe entry, so the
    // probe starts pfunc's block: each pass is three dispatches
    // (ploop, pfunc, the loop tail), traced or not, and the ADD and
    // CALL before the probe run threaded instead of single-stepping.
    for (const OwnerLinkRun *r : {&plain, &on}) {
        EXPECT_LE(r->stats.threaded_dispatches, 3u * 60 + 2);
        EXPECT_LE(r->stats.instructions - r->stats.threaded_instructions,
                  2u);
    }
    ASSERT_GE(off.events.size(), 60u); // a probe event per pass
    ASSERT_EQ(on.events.size(), off.events.size());
    for (std::size_t i = 0; i < on.events.size(); ++i) {
        EXPECT_EQ(on.events[i].cycle, off.events[i].cycle) << i;
        EXPECT_EQ(on.events[i].kind, off.events[i].kind) << i;
        EXPECT_EQ(on.events[i].addr, off.events[i].addr) << i;
    }
}

/** Code in SRAM whose trace runs through a segment it patches once per
 *  boot: a power cycle re-copies the unpatched bytes behind the bus,
 *  so the trace that read the patched ones must not survive it. */
const char *kSramTraceProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #0, R12
        MOV #200, R10
tloop:  JMP timm
        ADD #9, R15
timm:   ADD #5, R12
        CMP #200, R10
        JNE tskip
        MOV #7, &timm+2
tskip:  DEC R10
        JNZ tloop
        MOV.B #0, &__DONE
__halt: JMP __halt
)";

TEST(Threaded, PowerCycleRebuildsTracesOverRecopiedCode)
{
    auto run = [](bool threaded) {
        masm::LayoutSpec layout;
        layout.text_base = platform::kSramBase;
        layout.data_base = 0x9000;
        auto assembled =
            masm::assemble(masm::parse(kSramTraceProgram), layout);
        sim::Machine machine(withThreaded(threaded));
        machine.load(assembled.image, 0x3000);
        sim::FaultInjector injector(sim::FaultPlan::periodic(900, 5));
        machine.setFaultInjector(&injector);
        EXPECT_TRUE(machine.run().done);
        return std::make_pair(machine.stats(),
                              machine.cpu().reg(Reg::R12));
    };
    auto [on, on_r12] = run(true);
    auto [off, off_r12] = run(false);
    EXPECT_EQ(on.reboots, 5u);
    EXPECT_EQ(off_r12, 5 + 7 * 199);
    EXPECT_EQ(on_r12, off_r12) << "patched trace survived a power cycle";
    EXPECT_EQ(on.simulated(), off.simulated()) << "sram trace power cycles";
    expectMostlyThreaded(on, "sram trace power cycles");
    // A pass is the trace through timm plus tskip's block: 3.5
    // instructions a dispatch (as plain blocks, 2.3).
    EXPECT_LT(3 * on.threaded_dispatches, on.threaded_instructions);
}

/** A run that ends in an unmapped access: where it stops and what it
 *  counted up to the fatal. */
struct FatalRun {
    std::string error;
    sim::Stats stats;
    std::uint16_t r12 = 0;
};

FatalRun
runToFatal(const std::string &body, bool threaded)
{
    FatalRun r;
    auto assembled = masm::assemble(masm::parse(test::wrapBody(body)), {});
    sim::Machine machine(withThreaded(threaded));
    machine.load(assembled.image, 0x3000);
    try {
        machine.run();
    } catch (const support::FatalError &e) {
        r.error = e.what();
    }
    r.stats = machine.stats();
    r.r12 = machine.cpu().reg(Reg::R12);
    return r;
}

/** CALL #imm with SP two bytes above the SRAM base: its push lands on
 *  the first SRAM word, so the trace through the callee runs threaded.
 *  A PUSH in a later segment then needs the word below SRAM: the chain
 *  bails with the push uncommitted, and the oracle reports the fault
 *  after exactly the same work. */
const char kLowStackBody[] =
    "        MOV #0x2002, SP\n"
    "        MOV #4, R10\n"
    "lsloop: CALL #lsfunc\n"
    "        DEC R10\n"
    "        JNZ lsloop\n"
    "        ADD #1, R13\n"
    "        JMP lslast\n"
    "        ADD #9, R15\n"
    "lslast: PUSH R12\n"
    "        JMP lslast\n"
    "lsfunc: ADD #1, R12\n"
    "        RET\n";

TEST(Threaded, CallWithStackAtSramBaseMatchesOracle)
{
    FatalRun on = runToFatal(kLowStackBody, true);
    FatalRun off = runToFatal(kLowStackBody, false);
    EXPECT_NE(off.error.find("unmapped"), std::string::npos) << off.error;
    EXPECT_EQ(on.error, off.error);
    EXPECT_EQ(on.r12, 4);
    EXPECT_EQ(off.r12, 4);
    EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << "low stack";
    expectMostlyThreaded(on.stats, "low stack");
    EXPECT_GE(on.stats.threaded_bail_operand, 1u);
    // Per pass the CALL's trace through lsfunc, then DEC/JNZ.
    EXPECT_LE(on.stats.threaded_dispatches, 2u * 4 + 2);
}

/** A loop that is one three-segment trace, under timer interrupts and
 *  power failures: the trace's worst-case bound covers every segment,
 *  so a fire or failure cycle that falls inside it hands the trace to
 *  the oracle and lands on the same cycle. */
const char *kTracedTimerProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #tick_isr, &0xFFF0
        EINT
        MOV #400, R10
fg_loop:
        MOV #13, R12
        JMP fg_b
        ADD #9, R15
fg_b:   ADD #29, R12
        JMP fg_c
        ADD #9, R15
fg_c:   XOR R12, &fg_acc
        DEC R10
        JNZ fg_loop
        DINT
        MOV &tick_count, R12
        MOV.B #0, &__DONE
__halt: JMP __halt

        .func tick_isr
        ADD #1, &tick_count
        RETI
        .endfunc

        .data
        .align 2
tick_count: .word 0
fg_acc:     .word 0
)";

TEST(Threaded, TimerAndFaultBoundariesInsideTracesMatch)
{
    for (std::uint64_t period : {97ull, 500ull, 1024ull}) {
        sim::MachineConfig on_cfg = withThreaded(true);
        sim::MachineConfig off_cfg = withThreaded(false);
        on_cfg.timer_period_cycles = period;
        off_cfg.timer_period_cycles = period;
        test::MiniRun on = test::runSource(kTracedTimerProgram, on_cfg);
        test::MiniRun off = test::runSource(kTracedTimerProgram, off_cfg);
        ASSERT_TRUE(on.result.done);
        ASSERT_TRUE(off.result.done);
        std::string ctx = "traced timer period " + std::to_string(period);
        EXPECT_GT(on.stats().interrupts, 0u) << ctx;
        EXPECT_EQ(on.reg(Reg::R12), off.reg(Reg::R12)) << ctx;
        EXPECT_EQ(on.stats().simulated(), off.stats().simulated()) << ctx;
        expectMostlyThreaded(on.stats(), ctx);
        EXPECT_GT(on.stats().threaded_bail_boundary, 0u) << ctx;
        // One dispatch a pass, plus the ISR's (three as plain blocks).
        EXPECT_LT(on.stats().threaded_dispatches,
                  400u + 2 * on.stats().interrupts + 4)
            << ctx;
    }

    auto faulted = [](bool threaded) {
        masm::LayoutSpec layout;
        layout.data_base = 0x9000;
        auto assembled =
            masm::assemble(masm::parse(kTracedTimerProgram), layout);
        sim::Machine machine(withThreaded(threaded));
        machine.load(assembled.image, 0x3000);
        sim::FaultInjector injector(sim::FaultPlan::periodic(1300, 5));
        machine.setFaultInjector(&injector);
        EXPECT_TRUE(machine.run().done);
        return std::make_pair(machine.stats(),
                              machine.peek16(assembled.symbol("fg_acc")));
    };
    auto [on, on_acc] = faulted(true);
    auto [off, off_acc] = faulted(false);
    EXPECT_EQ(on.reboots, 5u);
    EXPECT_EQ(on_acc, off_acc);
    EXPECT_EQ(on.simulated(), off.simulated()) << "traced faults";
    expectMostlyThreaded(on, "traced faults");
    EXPECT_GT(on.threaded_bail_boundary, 0u);
    // Seven instructions a pass in one dispatch (as plain blocks, 2.3).
    EXPECT_LT(4 * on.threaded_dispatches, on.threaded_instructions);
}

// ---- Forms without a kernel -------------------------------------------

/** Instructions the fast side single-stepped. */
std::uint64_t
stepped(const sim::Stats &stats)
{
    return stats.instructions - stats.threaded_instructions;
}

/** Fifty passes of a loop around @p form; `ntarget` is a function
 *  that CALL forms may reach through R5. */
std::string
formLoop(const std::string &form)
{
    return kernelSource("        MOV #src, R6\n"
                        "        MOV #ntarget, R5\n"
                        "        MOV #50, R10\n"
                        "nloop:\n" +
                            form +
                            "        ADD R5, R7\n"
                            "        DEC R10\n"
                            "        JNZ nloop\n"
                            "        JMP ndone\n"
                            "ntarget: ADD #1, R9\n"
                            "        RET\n"
                            "ndone:\n",
                        kCopyWords);
}

/** Each form without a kernel runs on the oracle inside a threaded
 *  loop: both tiers agree, and the fast side single-steps exactly one
 *  instruction a pass more than the same loop around a kernel-backed
 *  control op, so the block stops just before the form and the chain
 *  resumes after it. A word access to an odd static address has no
 *  kernel either: the oracle reports it, after the same work on both
 *  tiers, and the fast side's chain ended normally before it (a chain
 *  that threw would have booked nothing). */
TEST(Threaded, NoKernelFormsRunOnTheOracle)
{
    struct Form {
        const char *form;
        const char *control;
        const char *name;
    };
    const Form forms[] = {
        {"        .word 0x4025\n", "        MOV R6, R5\n", "MOV @PC, R5"},
        {"        CALL R5\n", "        CALL #ntarget\n", "CALL R5"},
        {"        .word 0x5503\n", "        ADD R5, R4\n", "ADD R5, R3"},
        {"        .word 0x4623\n", "        MOV @R6, R4\n", "MOV @R6, R3"},
    };
    for (const Form &f : forms) {
        const std::string ctx = f.name;
        const std::string form_src = formLoop(f.form);
        const std::string control_src = formLoop(f.control);
        // The form decodes as named, and no kernel covers it.
        auto assembled = masm::assemble(masm::parse(form_src), {});
        const std::uint16_t at = assembled.symbol("nloop");
        auto chunk = std::find_if(
            assembled.image.chunks.begin(), assembled.image.chunks.end(),
            [at](const masm::Chunk &c) {
                return at >= c.base &&
                       static_cast<std::size_t>(at - c.base) < c.bytes.size();
            });
        ASSERT_NE(chunk, assembled.image.chunks.end()) << ctx;
        const std::uint16_t words[3] = {
            static_cast<std::uint16_t>(chunk->bytes[at - chunk->base] |
                                       chunk->bytes[at - chunk->base + 1]
                                           << 8),
            0, 0};
        const isa::Instr in = isa::decodeAt(words, at).instr;
        EXPECT_EQ(isa::disasm(in), f.name) << ctx;
        EXPECT_EQ(sim::kernelFamily(in), sim::KernelFamily::None) << ctx;

        test::MiniRun on = expectKernelTwin(form_src, ctx);
        test::MiniRun control =
            expectKernelTwin(control_src, ctx + " control");
        EXPECT_EQ(on.stats().instructions, control.stats().instructions)
            << ctx;
        EXPECT_EQ(stepped(on.stats()), stepped(control.stats()) + 50)
            << ctx;
    }

    struct Unaligned {
        const char *body;
        const char *error;
    };
    const Unaligned unaligned[] = {
        {"        MOV #50, R10\n"
         "uloop:  MOV &0x2001, R5\n"
         "        DEC R10\n"
         "        JNZ uloop\n",
         "fatal: unaligned word read at 0x2001"},
        {"        MOV #50, R10\n"
         "uloop:  MOV R10, &0x2003\n"
         "        DEC R10\n"
         "        JNZ uloop\n",
         "fatal: unaligned word write at 0x2003"},
        {"        MOV #0x2000, R5\n"
         "        MOV #50, R10\n"
         "uloop:  ADD &0x2005, 0(R5)\n"
         "        DEC R10\n"
         "        JNZ uloop\n",
         "fatal: unaligned word read at 0x2005"},
    };
    for (const Unaligned &u : unaligned) {
        FatalRun on = runToFatal(u.body, true);
        FatalRun off = runToFatal(u.body, false);
        EXPECT_EQ(off.error, u.error);
        EXPECT_EQ(on.error, off.error);
        EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << u.error;
        EXPECT_GT(on.stats.threaded_instructions, 0u) << u.error;
        EXPECT_EQ(stepped(on.stats), 0u) << u.error;
    }
}

// ---- Every form, once on each tier -----------------------------------

/** The grid's program: R5 and R6 point into plain SRAM data, R7 holds
 *  a code address (a CALL's register target), SR holds C, and the
 *  stack carries an interrupt frame that RETI returns through to the
 *  halt. The grid patches each form into the three-word slot (NOPs
 *  otherwise). The first four data words are gret, so a CALL through
 *  memory returns too. */
const char kGridSource[] = R"(
        .text
__start:
        MOV #0x3000, SP
        PUSH #ghalt
        PUSH #0
        MOV #gdata, R5
        MOV #gdata+16, R6
        MOV #gret, R7
        MOV #1, SR
gslot:  NOP
        NOP
        NOP
ghalt:  MOV.B #0, &__DONE
__halt: JMP __halt
gret:   RET
        .data
        .align 2
gdata:  .word gret, gret, gret, gret, 0x8001, 0x7FFF, 0x00FF, 0xFF00
        .word 0x0001, 0x8000, 0x1234, 0xFFFF, 0x0F0F, 0x5555, 0xAAAA, 0
        .word 0x4321, 0x8765, 0x0080, 0x7F00, 0, 0, 0, 0
)";

/** How one run of a grid form ended. */
struct GridRun {
    std::string error;
    sim::Stats stats;
    std::array<std::uint16_t, 16> regs{};
    std::vector<std::uint8_t> memory;
};

GridRun
runGrid(const masm::Image &image, bool threaded)
{
    GridRun r;
    sim::Machine machine(withThreaded(threaded));
    machine.load(image, 0x3000);
    try {
        machine.run();
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.stats = machine.stats();
    r.regs = machine.cpu().regs();
    const std::uint8_t *bytes = machine.memory().bytes();
    r.memory.assign(bytes, bytes + platform::kMmioBase);
    r.memory.insert(r.memory.end(), bytes + platform::kMmioEnd,
                    bytes + 0x10000);
    return r;
}

/** Every Format I op x source mode x destination mode x B/W, and every
 *  Format II op x mode x B/W, with the registers ordinary, SR and
 *  R3/CG2 (and PC, for the source modes: PC, @PC, x(PC) and @PC+),
 *  runs once on each tier with the same result, registers, memory and
 *  simulated Stats, or fails with the same diagnostic. A form with a
 *  kernel runs threaded (only the halt single-steps); one without runs
 *  on the oracle between threaded code. No fuzzer generates most of
 *  these forms, so this grid is what shows that every form the block
 *  builder admits has a kernel. */
TEST(Threaded, EveryFormMatchesOracle)
{
    masm::AssembleResult assembled =
        masm::assemble(masm::parse(kGridSource), {});
    const std::uint16_t slot = assembled.symbol("gslot");
    const std::uint16_t gdata = assembled.symbol("gdata");
    const std::uint16_t gret = assembled.symbol("gret");
    auto chunk_it = std::find_if(
        assembled.image.chunks.begin(), assembled.image.chunks.end(),
        [slot](const masm::Chunk &c) {
            return slot >= c.base && slot - c.base + 6u <= c.bytes.size();
        });
    ASSERT_NE(chunk_it, assembled.image.chunks.end());
    const std::size_t chunk = static_cast<std::size_t>(
        chunk_it - assembled.image.chunks.begin());
    const std::size_t at = slot - chunk_it->base;

    // Register numbers of each operand role.
    constexpr std::uint8_t kPc = 0, kSr = 2, kCg2 = 3;
    // The ordinary register of a mode: R7 holds a value (a code
    // address), R5 and R6 point into the data.
    auto ordinary = [](std::uint8_t mode, bool dst) -> std::uint8_t {
        return mode == 0 ? 7 : dst ? 6 : 5;
    };
    // The extension word of a source (or Format II) operand, when its
    // mode and register take one, at @p ext_addr.
    auto srcExt = [&](std::uint8_t as, std::uint8_t reg,
                      std::uint16_t ext_addr) -> std::uint16_t {
        if (as == 3)
            return gret; // #imm
        if (reg == kPc)
            return static_cast<std::uint16_t>(gdata + 4 - ext_addr);
        if (reg == kSr)
            return static_cast<std::uint16_t>(gdata + 6); // &abs
        return 2;                                          // 2(R5)
    };
    auto dstExt = [&](std::uint8_t reg,
                      std::uint16_t ext_addr) -> std::uint16_t {
        switch (reg) {
          case kPc: return static_cast<std::uint16_t>(gdata + 10 - ext_addr);
          case kSr: return static_cast<std::uint16_t>(gdata + 12);
          case kCg2: return static_cast<std::uint16_t>(gdata + 14); // R3 = 0
          default: return 2; // 2(R6)
        }
    };

    int forms = 0, kernels = 0, failures = 0;
    auto runForm = [&](std::vector<std::uint16_t> words) {
        const std::uint16_t w0 = words[0];
        const isa::Instr in =
            isa::decodeAt(words.data(), slot).instr;
        const std::string ctx = isa::disasm(in) + " (" +
                                support::hex16(w0) + ")";
        words.resize(3, 0x4303); // NOP
        masm::Image image = assembled.image;
        for (std::size_t i = 0; i < 3; ++i) {
            image.chunks[chunk].bytes[at + 2 * i] =
                static_cast<std::uint8_t>(words[i]);
            image.chunks[chunk].bytes[at + 2 * i + 1] =
                static_cast<std::uint8_t>(words[i] >> 8);
        }
        GridRun on = runGrid(image, true);
        GridRun off = runGrid(image, false);
        ++forms;
        EXPECT_EQ(on.error, off.error) << ctx;
        EXPECT_EQ(on.stats.simulated(), off.stats.simulated()) << ctx;
        EXPECT_TRUE(on.regs == off.regs) << ctx << ": registers differ";
        EXPECT_TRUE(on.memory == off.memory) << ctx << ": memory differs";
        const bool kernel =
            sim::kernelFamily(in) != sim::KernelFamily::None;
        kernels += kernel;
        if (!off.error.empty()) {
            ++failures;
            return;
        }
        // Only the halt single-steps, and the form if it has no kernel.
        EXPECT_EQ(stepped(on.stats), kernel ? 1u : 2u) << ctx;
    };

    for (int op = static_cast<int>(isa::Op::Mov);
         op <= static_cast<int>(isa::Op::And); ++op) {
        for (std::uint8_t as = 0; as < 4; ++as) {
            for (std::uint8_t sreg : {ordinary(as, false), kSr, kCg2, kPc}) {
                for (std::uint8_t ad = 0; ad < 2; ++ad) {
                    std::vector<std::uint8_t> dregs = {ordinary(ad, true),
                                                       kSr, kCg2};
                    if (ad)
                        dregs.push_back(kPc); // x(PC): symbolic
                    for (std::uint8_t dreg : dregs) {
                        for (int bw = 0; bw < 2; ++bw) {
                            std::vector<std::uint16_t> w = {
                                static_cast<std::uint16_t>(
                                    op << 12 | sreg << 8 | ad << 7 |
                                    bw << 6 | as << 4 | dreg)};
                            const isa::Shape shape = isa::decodeShape(w[0]);
                            if (shape.src_ext)
                                w.push_back(srcExt(
                                    as, sreg,
                                    static_cast<std::uint16_t>(slot + 2)));
                            if (shape.dst_ext)
                                w.push_back(dstExt(
                                    dreg, static_cast<std::uint16_t>(
                                              slot + 2 * w.size())));
                            runForm(w);
                        }
                    }
                }
            }
        }
    }
    for (int op = static_cast<int>(isa::Op::Rrc);
         op <= static_cast<int>(isa::Op::Call); ++op) {
        const int sub = op - static_cast<int>(isa::Op::Rrc);
        for (std::uint8_t as = 0; as < 4; ++as) {
            for (std::uint8_t reg : {ordinary(as, false), kSr, kCg2, kPc}) {
                for (int bw = 0; bw < 2; ++bw) {
                    std::vector<std::uint16_t> w = {static_cast<std::uint16_t>(
                        0x1000 | sub << 7 | bw << 6 | as << 4 | reg)};
                    if (isa::decodeShape(w[0]).dst_ext)
                        w.push_back(srcExt(
                            as, reg, static_cast<std::uint16_t>(slot + 2)));
                    runForm(w);
                }
            }
        }
    }
    runForm({0x1300}); // RETI
    EXPECT_EQ(forms, 12 * 16 * 7 * 2 + 6 * 16 * 2 + 1);
    // Most forms have a kernel and run to the halt.
    EXPECT_GT(2 * kernels, forms);
    EXPECT_GT(4 * (forms - failures), 3 * forms);
}

} // namespace
