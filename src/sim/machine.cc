#include "sim/machine.hh"

#include <algorithm>
#include <cstring>

#include "isa/decode.hh"
#include "support/logging.hh"
#include "trace/profile.hh"

namespace swapram::sim {

namespace {

constexpr auto kMemcpy = static_cast<std::uint8_t>(CodeOwner::Memcpy);

/** Stats fields the profiler attributes per instruction. */
struct StatSnapshot {
    std::uint64_t base_cycles, stall_cycles;
    std::uint64_t fram_fetch, fram_read, fram_write;
    std::uint64_t sram_fetch, sram_read, sram_write;

    explicit StatSnapshot(const Stats &s)
        : base_cycles(s.base_cycles), stall_cycles(s.stall_cycles),
          fram_fetch(s.fram.fetch), fram_read(s.fram.read),
          fram_write(s.fram.write), sram_fetch(s.sram.fetch),
          sram_read(s.sram.read), sram_write(s.sram.write)
    {
    }

    trace::StepCosts
    deltaTo(const Stats &s) const
    {
        trace::StepCosts d;
        d.base_cycles = s.base_cycles - base_cycles;
        d.stall_cycles = s.stall_cycles - stall_cycles;
        d.fram_fetch = s.fram.fetch - fram_fetch;
        d.fram_read = s.fram.read - fram_read;
        d.fram_write = s.fram.write - fram_write;
        d.sram_fetch = s.sram.fetch - sram_fetch;
        d.sram_read = s.sram.read - sram_read;
        d.sram_write = s.sram.write - sram_write;
        return d;
    }
};

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config), bus_(memory_, mmio_, stats_, config_), cpu_(bus_)
{
    bus_.setCycleProbe(&stats_.base_cycles);
}

void
Machine::buildTier(bool fast)
{
    if (!fast) {
        threaded_.reset();
        superblock_.reset();
    } else if (!threaded_) {
        superblock_ = std::make_unique<SuperblockEngine>(
            memory_, bus_, stats_, config_);
        superblock_->setClassifier(
            [this](std::uint16_t pc) { return ownerRun(pc); });
        superblock_->setRecoveryRange(recovery_base_, recovery_end_);
        superblock_->setProbeEntries(ckpt_commit_entry_,
                                     ckpt_restore_entry_);
        threaded_ = std::make_unique<ThreadedEngine>(
            cpu_, memory_, bus_, stats_, config_, *superblock_);
    }
    if (fast)
        predecode_.reset();
    else if (config_.predecode_enabled && !predecode_)
        predecode_ = std::make_unique<PredecodeCache>();
    cpu_.setPredecode(predecode_.get());
    bus_.setPredecode(predecode_.get());
    bus_.setPageGens(superblock_ ? &superblock_->pageGens() : nullptr);
}

void
Machine::load(const masm::Image &image, std::uint16_t stack_top)
{
    memory_.loadImage(image);
    bus_.setCodeRange(image.text.base, image.text.end());
    cpu_.reset(image.entry, stack_top);
    image_ = image;
    stack_top_ = stack_top;
    // The loader writes memory directly (not through the bus), so any
    // previously cached decodes are stale.
    if (predecode_)
        predecode_->invalidateAll();
    if (superblock_)
        superblock_->invalidateAll();
}

void
Machine::powerCycle()
{
    std::uint16_t pc_at_failure = cpu_.pc();
    ++stats_.reboots;

    // SRAM decays; FRAM keeps every byte.
    std::uint8_t *mem = memory_.bytes();
    std::memset(mem + platform::kSramBase, 0,
                config_.sramEnd() - platform::kSramBase);
    bus_.hwCache().reset();

    // The crt0 model: re-copy image chunks that live in SRAM (code or
    // data placed there) and the .data initialisers wherever they are;
    // re-zero .bss. .text and .const chunks in FRAM are NOT restored —
    // runtime metadata kept there persists exactly as the failure left
    // it, which is what boot recovery must repair.
    for (const masm::Chunk &chunk : image_.chunks) {
        bool in_sram = chunk.base >= platform::kSramBase &&
                       chunk.base < config_.sramEnd();
        bool is_data = image_.data.size &&
                       chunk.base >= image_.data.base &&
                       chunk.base < image_.data.end();
        if ((in_sram || is_data) && !chunk.bytes.empty())
            std::memcpy(mem + chunk.base, chunk.bytes.data(),
                        chunk.bytes.size());
    }
    std::memset(mem + image_.bss.base, 0, image_.bss.size);

    // Volatile device and CPU state. The SRAM decay and crt0 re-copy
    // above bypassed the bus, so every cached decode is suspect.
    if (predecode_)
        predecode_->invalidateAll();
    if (superblock_)
        superblock_->invalidateAll();
    mmio_.powerCycle();
    cpu_.reset(image_.entry, stack_top_);
    timer_pending_ = false;
    timer_next_fire_ = stats_.totalCycles();
    in_recovery_ = false;
    // The copy episode in flight, if any, is abandoned with the
    // registers that described it.
    last_owner_ = kNoOwner;

    if (trace_ && trace_->wants(trace::kCatPower)) {
        trace_->emit({stats_.totalCycles(), trace::EventKind::PowerFail,
                      0, pc_at_failure,
                      static_cast<std::uint16_t>(stats_.reboots), 0});
    }
}

void
Machine::addOwnerRange(std::uint16_t base, std::uint32_t end,
                       CodeOwner owner)
{
    owner_ranges_.push_back({base, end, owner});
    if (owner == CodeOwner::Memcpy)
        copy_ = readCopyRoutine(base, end);
    // Blocks pre-attribute instr_by_owner at build time.
    if (superblock_)
        superblock_->invalidateAll();
}

Machine::CopyRegs
Machine::readCopyRoutine(std::uint16_t base, std::uint32_t end) const
{
    CopyRegs regs;
    bool copies = false, counts = false;
    for (std::uint32_t pc = base; pc < end;) {
        const std::uint16_t at = static_cast<std::uint16_t>(pc);
        const std::uint16_t words[3] = {
            memory_.read16(at),
            memory_.read16(static_cast<std::uint16_t>(at + 2)),
            memory_.read16(static_cast<std::uint16_t>(at + 4))};
        if (!isa::validLeadingWord(words[0]))
            break;
        const isa::Decoded d = isa::decodeAt(words, at);
        const isa::Instr &in = d.instr;
        if (in.op == isa::Op::Mov && !in.byte &&
            in.src.mode == isa::Mode::IndirectInc &&
            in.dst.mode == isa::Mode::Indexed) {
            regs.src = in.src.reg;
            regs.dst = in.dst.reg;
            copies = true;
        } else if (in.op == isa::Op::Sub && !in.byte &&
                   in.src.mode == isa::Mode::Immediate &&
                   in.src.value == 2 &&
                   in.dst.mode == isa::Mode::Register) {
            regs.count = in.dst.reg;
            counts = true;
        }
        pc += d.size_bytes;
    }
    if (copies && counts)
        regs.entry = base;
    return regs;
}

void
Machine::setTraceEngine(trace::TraceEngine *engine)
{
    trace_ = engine;
    bus_.setTraceEngine(engine);
}

CodeOwner
Machine::classifyPc(std::uint16_t pc) const
{
    // Later registrations win: scan in reverse.
    for (auto it = owner_ranges_.rbegin(); it != owner_ranges_.rend();
         ++it) {
        if (pc >= it->base && static_cast<std::uint32_t>(pc) < it->end)
            return it->owner;
    }
    return regionOf(pc, config_.sramEnd()) == RegionKind::Sram
               ? CodeOwner::AppSram
               : CodeOwner::AppFram;
}

SuperblockEngine::OwnerRun
Machine::ownerRun(std::uint16_t pc) const
{
    std::uint32_t end = 0x10000;
    auto edge = [pc, &end](std::uint32_t at) {
        if (at > pc)
            end = std::min(end, at);
    };
    edge(platform::kSramBase);
    edge(config_.sramEnd());
    for (const OwnerRange &r : owner_ranges_) {
        edge(r.base);
        edge(r.end);
    }
    return {static_cast<std::uint8_t>(classifyPc(pc)), end};
}

void
Machine::copyEnd(std::uint64_t now, std::uint16_t pc,
                 const std::array<std::uint16_t, 16> &regs)
{
    if (copy_.entry && trace_->wants(trace::kCatSwap)) {
        trace_->emit({now, trace::EventKind::CopyEnd, 0, pc,
                      regs[isa::regIndex(copy_.src)], 0});
    }
}

bool
Machine::preStep(std::uint16_t pc, std::uint8_t owner, std::uint64_t now,
                 const std::array<std::uint16_t, 16> &regs)
{
    if (ckpt_commit_entry_ || ckpt_restore_entry_) {
        // Entry-point probe: one event per call of the generated
        // checkpoint routines (their first instruction executes exactly
        // once per invocation).
        if (trace_ && trace_->wants(trace::kCatPower)) {
            if (pc == ckpt_commit_entry_) {
                trace_->emit({now, trace::EventKind::CkptCommit, 0, pc,
                              0, 0});
            } else if (pc == ckpt_restore_entry_) {
                trace_->emit({now, trace::EventKind::CkptRestore, 0, pc,
                              0, 0});
            }
        }
    }
    bool in = false;
    if (recovery_end_) {
        in = pc >= recovery_base_ &&
             static_cast<std::uint32_t>(pc) < recovery_end_;
        if (in != in_recovery_) {
            in_recovery_ = in;
            if (in)
                recovery_enter_cycle_ = now;
            if (trace_ && trace_->wants(trace::kCatPower)) {
                trace_->emit({now,
                              in ? trace::EventKind::RecoveryEnter
                                 : trace::EventKind::RecoveryExit,
                              0, pc, 0,
                              in ? 0
                                 : static_cast<std::uint32_t>(
                                       now - recovery_enter_cycle_)});
            }
        }
    }
    if (trace_ && owner != last_owner_) {
        if (last_owner_ == kMemcpy)
            copyEnd(now, pc, regs);
        if (trace_->wants(trace::kCatSwap)) {
            trace_->emit({now, trace::EventKind::OwnerChange, 0, pc,
                          owner, last_owner_});
            if (owner == kMemcpy && copy_.entry) {
                trace_->emit(
                    {now, trace::EventKind::CopyBegin,
                     static_cast<std::uint8_t>(pc == copy_.entry),
                     regs[isa::regIndex(copy_.dst)],
                     regs[isa::regIndex(copy_.src)],
                     regs[isa::regIndex(copy_.count)]});
            }
        }
        last_owner_ = owner;
    }
    return in;
}

void
Machine::stepObserved(std::uint16_t pc, CodeOwner owner)
{
    auto owner8 = static_cast<std::uint8_t>(owner);
    StatSnapshot pre(stats_);
    cpu_.step(stats_);
    trace::StepCosts costs = pre.deltaTo(stats_);
    if (profiler_)
        profiler_->record(pc, owner8, costs);
    if (trace_ && trace_->wants(trace::kCatInstr)) {
        trace_->emit({stats_.totalCycles(),
                      trace::EventKind::InstrRetire, 0, pc,
                      static_cast<std::uint16_t>(costs.base_cycles),
                      static_cast<std::uint32_t>(costs.stall_cycles)});
    }
}

void
Machine::interruptObserved(std::uint16_t pc)
{
    // Entry costs (pushes, vector fetch) are charged to the
    // interrupted function so profile totals stay exact.
    StatSnapshot pre(stats_);
    cpu_.interrupt(platform::kTimerVector, stats_);
    if (profiler_) {
        profiler_->record(
            pc, static_cast<std::uint8_t>(classifyPc(pc)),
            pre.deltaTo(stats_));
    }
    if (trace_ && trace_->wants(trace::kCatInterrupt)) {
        trace_->emit({stats_.totalCycles(),
                      trace::EventKind::InterruptEnter, 0,
                      platform::kTimerVector, pc, 0});
    }
}

void
Machine::step()
{
    if (config_.timer_period_cycles) {
        std::uint64_t now = stats_.totalCycles();
        if (now >= timer_next_fire_)
            timer_pending_ = true;
        if (timer_pending_ && cpu_.interruptsEnabled()) {
            timer_pending_ = false;
            while (timer_next_fire_ <= now)
                timer_next_fire_ += config_.timer_period_cycles;
            if (trace_ || profiler_)
                interruptObserved(cpu_.pc());
            else
                cpu_.interrupt(platform::kTimerVector, stats_);
            return; // interrupt entry consumes this step
        }
    }
    const std::uint16_t pc = cpu_.pc();
    CodeOwner owner = classifyPc(pc);
    ++stats_.instr_by_owner[static_cast<int>(owner)];
    const std::uint64_t before = stats_.totalCycles();
    bool in_recovery = preStep(pc, static_cast<std::uint8_t>(owner),
                               before, cpu_.regs());
    if (profiler_ || (trace_ && trace_->wants(trace::kCatInstr)))
        stepObserved(pc, owner);
    else
        cpu_.step(stats_);
    if (in_recovery)
        stats_.recovery_cycles += stats_.totalCycles() - before;
}

bool
Machine::tryThreaded()
{
    const std::uint16_t pc = cpu_.pc();
    ThreadedEngine::ChainLimits limits;
    std::uint8_t owner = ThreadedEngine::ChainLimits::kAnyOwner;
    if (trace_) {
        // The chain stays inside the entry owner and stops before
        // checkpoint probes, so every pre-step event lands on a
        // chain's first block. preStep runs after the chain, so on
        // an owner change keep the registers the copy events report
        // as the chain found them (the copy loop advances them, the
        // runtime after it clobbers them).
        owner = static_cast<std::uint8_t>(classifyPc(pc));
        if (owner != last_owner_)
            chain_regs_ = cpu_.regs();
        limits.owner = owner;
        if (trace_->wants(trace::kCatPower)) {
            limits.ckpt_commit = ckpt_commit_entry_;
            limits.ckpt_restore = ckpt_restore_entry_;
        }
    }
    limits.now = stats_.totalCycles();
    limits.limit_cycles = config_.max_cycles;
    if (fault_) {
        limits.limit_cycles =
            std::min(limits.limit_cycles, fault_->nextFailureCycle());
    }
    limits.timer_period = config_.timer_period_cycles;
    limits.timer_fire = timer_next_fire_;
    limits.timer_pending = timer_pending_;

    ThreadedEngine::ChainResult res = threaded_->runChain(limits);
    if (!res.instructions)
        return false;
    // The chain emits nothing, so the entry instruction's pre-step
    // events, stamped with the entry cycle, may follow it. It never
    // crosses the recovery boundary, so its whole cycle delta
    // attributes to the entry PC's side.
    if (preStep(pc, owner, limits.now, chain_regs_))
        stats_.recovery_cycles += res.cycles;
    return true;
}

void
Machine::addWatermarkSkip(std::uint16_t base, std::uint32_t end)
{
    if (end <= base)
        return;
    wm_skip_.push_back({base, end});
    std::sort(wm_skip_.begin(), wm_skip_.end());
}

std::uint64_t
Machine::bootWatermark() const
{
    // FNV-1a over the persistent state a reboot starts from: SRAM is
    // zeroed and .data/.bss re-initialised at every boot, so boot-to-
    // boot progress lives entirely in FRAM; the failure PC pins where
    // the budget ran out. The machine is deterministic, so a repeated
    // watermark under a repeating per-boot budget is an exact replay.
    //
    // Skip ranges hide persistent cells that advance without any real
    // forward progress (lifetime statistics counters, checkpoint
    // sequence numbers): hashing those would make every boot look
    // distinct and blind the livelock watchdog.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 1099511628211ull;
    };
    std::size_t skip = 0;
    for (std::uint32_t a = platform::kFramBase; a < platform::kFramEnd;
         ++a) {
        while (skip < wm_skip_.size() && wm_skip_[skip].second <= a)
            ++skip;
        if (skip < wm_skip_.size() && a >= wm_skip_[skip].first)
            continue;
        mix(memory_.read8(static_cast<std::uint16_t>(a)));
    }
    std::uint16_t pc = cpu_.pc();
    mix(static_cast<std::uint8_t>(pc & 0xFF));
    mix(static_cast<std::uint8_t>(pc >> 8));
    return h;
}

RunResult
Machine::run()
{
    // The profiler and metrics record every instruction, and per-step
    // trace categories exist only on the oracle.
    buildTier(config_.superblock_enabled && config_.threaded_enabled &&
              !profiler_ && !metrics_ &&
              !(trace_ && (trace_->mask() & trace::kCatPerStep)));
    RunResult result = runLoop();
    // A copy cut short by the end of the run (cycle budget, livelock,
    // empty capacitor) still reports how far it got.
    if (trace_ && last_owner_ == kMemcpy)
        copyEnd(stats_.totalCycles(), cpu_.pc(), cpu_.regs());
    return result;
}

RunResult
Machine::runLoop()
{
    const bool dispatch = threaded_ != nullptr;
    while (!mmio_.done()) {
        if (stats_.totalCycles() >= config_.max_cycles) {
            return {false, 0, RunResult::Stop::MaxCycles};
        }
        if (fault_ && fault_->shouldFail(stats_.totalCycles())) {
            if (fault_->exhausted())
                return {false, 0, RunResult::Stop::Exhausted};
            if (config_.livelock_boots) {
                // Progress means reaching a state never seen before.
                // A run stuck in a period-k orbit of old states (a
                // torn commit restored every boot, a recovery walk
                // alternating pool slots) revisits the set forever.
                if (seen_watermarks_.insert(bootWatermark()).second) {
                    livelock_streak_ = 0;
                } else if (++livelock_streak_ >= config_.livelock_boots) {
                    return {false, 0, RunResult::Stop::Livelock};
                }
            }
            powerCycle();
            continue;
        }
        if (dispatch && tryThreaded())
            continue;
        step();
    }
    return {true, mmio_.exitCode(), RunResult::Stop::Done};
}

} // namespace swapram::sim
