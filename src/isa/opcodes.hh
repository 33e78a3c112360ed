/**
 * @file
 * MSP430 core opcodes: the 12 double-operand (format I) instructions,
 * 7 single-operand (format II) instructions, and 8 conditional jumps.
 *
 * Emulated instructions (RET, BR, POP, NOP, CLR, INC, ...) are expanded
 * to core instructions by the assembler front end (masm/ast.cc) and never
 * appear at this level.
 */

#ifndef SWAPRAM_ISA_OPCODES_HH
#define SWAPRAM_ISA_OPCODES_HH

#include <cstdint>
#include <string>

namespace swapram::isa {

/** Core MSP430 opcode. */
enum class Op : std::uint8_t {
    // Format I (double operand); enum value == encoding opcode nibble.
    Mov = 0x4,
    Add = 0x5,
    Addc = 0x6,
    Subc = 0x7,
    Sub = 0x8,
    Cmp = 0x9,
    Dadd = 0xA,
    Bit = 0xB,
    Bic = 0xC,
    Bis = 0xD,
    Xor = 0xE,
    And = 0xF,

    // Format II (single operand); values 0x10+sub-opcode.
    Rrc = 0x10,
    Swpb = 0x11,
    Rra = 0x12,
    Sxt = 0x13,
    Push = 0x14,
    Call = 0x15,
    Reti = 0x16,

    // Jumps; values 0x20+condition code.
    Jne = 0x20,
    Jeq = 0x21,
    Jnc = 0x22,
    Jc = 0x23,
    Jn = 0x24,
    Jge = 0x25,
    Jl = 0x26,
    Jmp = 0x27,
};

/** Structural class of an opcode. */
enum class OpFormat : std::uint8_t {
    DoubleOperand, ///< format I: op src, dst
    SingleOperand, ///< format II: op dst (RETI takes no operand)
    Jump,          ///< conditional/unconditional relative jump
};

/** Format of @p op. */
OpFormat opFormat(Op op);

/** Canonical upper-case mnemonic ("MOV", "JNE", ...). */
std::string opMnemonic(Op op);

/** True if the instruction may take a .B (byte) suffix. */
bool supportsByte(Op op);

/** True for format-I ops that write no destination (CMP, BIT). */
bool isCompareOnly(Op op);

/** True for format-I ops that leave status flags untouched (MOV/BIC/BIS). */
bool preservesFlags(Op op);

/** Condition code (0..7) for a jump opcode. */
std::uint8_t jumpCondition(Op op);

/** Jump opcode from a condition code (0..7). */
Op jumpFromCondition(std::uint8_t condition);

} // namespace swapram::isa

#endif // SWAPRAM_ISA_OPCODES_HH
