/**
 * @file
 * Two-pass assembler with jump relaxation.
 *
 * assemble() computes a layout for the program's sections, iteratively
 * relaxes out-of-range relative jumps into absolute branches (the same
 * behaviour the paper relies on from msp430-gcc, §4), resolves symbols,
 * and emits a loadable Image. The post-relaxation Program is returned so
 * instrumentation passes can scan the *final* instruction forms — e.g.
 * SwapRAM's search for absolute branches to relocate.
 */

#ifndef SWAPRAM_MASM_ASSEMBLER_HH
#define SWAPRAM_MASM_ASSEMBLER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "masm/ast.hh"

namespace swapram::masm {

/** Where each section is placed. nullopt chains after the previous one. */
struct LayoutSpec {
    std::uint16_t text_base = 0x8000;
    std::optional<std::uint16_t> const_base; ///< default: after .text
    std::optional<std::uint16_t> data_base;  ///< default: after .const
    std::optional<std::uint16_t> bss_base;   ///< default: after .data
    /** Extra predefined symbols (MMIO addresses are always defined). */
    std::unordered_map<std::string, std::uint16_t> predefined;
};

/** Contiguous address range. */
struct Range {
    std::uint16_t base = 0;
    std::uint32_t size = 0;
    std::uint32_t end() const { return base + size; }
    bool
    contains(std::uint16_t addr) const
    {
        return addr >= base && static_cast<std::uint32_t>(addr) < end();
    }
};

/** Initialized bytes at an address. */
struct Chunk {
    std::uint16_t base = 0;
    std::vector<std::uint8_t> bytes;
};

/** Loadable output of the assembler. */
struct Image {
    std::vector<Chunk> chunks; ///< .text/.const/.data payloads
    Range text, cnst, data, bss;
    std::uint16_t entry = 0; ///< `__start` if defined, else text base
};

/** Address extent of one assembled function. */
struct FunctionInfo {
    std::string name;
    std::uint16_t addr = 0;
    std::uint16_t size = 0;
};

/** Full result of assembling a program. */
struct AssembleResult {
    Image image;
    std::unordered_map<std::string, std::uint16_t> symbols;
    std::vector<FunctionInfo> functions;
    /** Post-relaxation program; stmt_addr is parallel to its stmts. */
    Program relaxed;
    std::vector<std::uint16_t> stmt_addr;

    /** Address of @p name; fatal()s if undefined. */
    std::uint16_t symbol(const std::string &name) const;
    /** Function info for @p name; fatal()s if not a .func. */
    const FunctionInfo &function(const std::string &name) const;
};

/**
 * Address-sorted index over an image's function table, for fast
 * PC-to-function resolution (profiler attribution, trace
 * symbolization). Does not own the AssembleResult's data.
 */
class FunctionIndex
{
  public:
    explicit FunctionIndex(std::vector<FunctionInfo> functions);

    /** Function whose [addr, addr+size) contains @p addr, or null. */
    const FunctionInfo *at(std::uint16_t addr) const;

    /** "name+0x12"-style label for @p addr ("" if unmapped). */
    std::string label(std::uint16_t addr) const;

    /** All functions, sorted by address. */
    const std::vector<FunctionInfo> &sorted() const { return funcs_; }

  private:
    std::vector<FunctionInfo> funcs_;
};

/**
 * Assemble @p program with section placement @p layout. The program is
 * consumed: it becomes AssembleResult::relaxed. Pass an rvalue to hand
 * it over; an lvalue argument is copied.
 */
AssembleResult assemble(Program program, const LayoutSpec &layout);

/**
 * Encoded size in bytes of one symbolic instruction (stable across
 * passes; symbolic immediates are always sized with an extension word).
 */
std::uint16_t instrSize(const AsmInstr &instr);

} // namespace swapram::masm

#endif // SWAPRAM_MASM_ASSEMBLER_HH
