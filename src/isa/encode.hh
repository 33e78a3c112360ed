/**
 * @file
 * MSP430 instruction encoder: Instr -> 1..3 16-bit words.
 */

#ifndef SWAPRAM_ISA_ENCODE_HH
#define SWAPRAM_ISA_ENCODE_HH

#include <cstdint>

#include "isa/instruction.hh"

namespace swapram::isa {

/**
 * Size in bytes of the encoding of @p instr (2, 4, or 6). Stable across
 * assembler passes: depends only on addressing modes and the force_ext /
 * constant-generator rules, never on resolved symbol values.
 */
std::uint16_t encodedSize(const Instr &instr);

/** Most words one instruction encodes to. */
inline constexpr int kMaxInstrWords = 3;

/**
 * Encode @p instr at byte address @p addr (needed for Symbolic operands
 * and jump offsets) into @p out; returns the number of words written
 * (1..3). fatal()s on malformed operands or out-of-range jumps.
 */
int encode(const Instr &instr, std::uint16_t addr,
           std::uint16_t (&out)[kMaxInstrWords]);

/** Whether @p value can be produced by the constant generator. */
bool cgEligible(std::uint16_t value, bool byte_op);

/** Maximum forward reach of a relative jump, in bytes from instr addr. */
inline constexpr int kJumpMaxForward = 2 + 2 * 511;
/** Maximum backward reach of a relative jump, in bytes from instr addr. */
inline constexpr int kJumpMaxBackward = -(2 * 512) + 2;

/** True if a jump at @p addr can reach @p target. */
bool jumpInRange(std::uint16_t addr, std::uint16_t target);

} // namespace swapram::isa

#endif // SWAPRAM_ISA_ENCODE_HH
