/**
 * @file
 * MSP430 CPU model: scalar, in-order, 16-bit, fetch/decode/execute with
 * per-instruction base cycle charging. Every memory touch goes through
 * the Bus so FRAM stalls and statistics fall out of execution.
 */

#ifndef SWAPRAM_SIM_CPU_HH
#define SWAPRAM_SIM_CPU_HH

#include <array>
#include <cstdint>

#include "isa/instruction.hh"
#include "sim/bus.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"

namespace swapram::sim {

/** The processor. */
class Cpu
{
  public:
    explicit Cpu(Bus &bus) : bus_(bus) { regs_.fill(0); }

    /** Attach a predecode cache (nullptr = always decode). The owner
     *  (Machine) is responsible for wiring write invalidation. */
    void setPredecode(PredecodeCache *cache) { predecode_ = cache; }

    /** Set PC and SP for a fresh run. */
    void
    reset(std::uint16_t entry, std::uint16_t stack_top)
    {
        regs_.fill(0);
        regs_[0] = entry;
        regs_[1] = stack_top;
    }

    /** Execute one instruction, updating @p stats. */
    void step(Stats &stats);

    /**
     * Enter an interrupt through @p vector_addr (the word holding the
     * handler address): push PC, push SR, clear SR (disabling GIE),
     * jump to the handler. Charges the standard entry cycles.
     */
    void interrupt(std::uint16_t vector_addr, Stats &stats);

    /** True when the global interrupt enable bit is set. */
    bool interruptsEnabled() const
    {
        return (regs_[2] & isa::sr::kGie) != 0;
    }

    std::uint16_t pc() const { return regs_[0]; }
    std::uint16_t reg(isa::Reg r) const { return regs_[isa::regIndex(r)]; }
    void
    setReg(isa::Reg r, std::uint16_t v)
    {
        regs_[isa::regIndex(r)] = v;
    }

    /** The raw register file. The threaded tier executes directly on
     *  it (sharing the ALU of sim/exec.hh with step()); everyone else
     *  should use reg()/setReg(). */
    std::array<std::uint16_t, 16> &regs() { return regs_; }

  private:
    void execute(const isa::Instr &instr);

    std::array<std::uint16_t, 16> regs_{};
    Bus &bus_;
    PredecodeCache *predecode_ = nullptr;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_CPU_HH
