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
#include <string_view>
#include <unordered_map>
#include <utility>
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

/**
 * An assembled program's symbols and their addresses: labels, .func
 * names and their `__end_` labels, predefined and built-in symbols
 * (not .equs). Looked up by name or by Symbol; iterates as
 * (name, address) pairs in no particular order.
 */
class SymbolTable
{
  public:
    using value_type = std::pair<std::string_view, std::uint16_t>;
    using const_iterator = std::vector<value_type>::const_iterator;

    const_iterator find(std::string_view name) const
    {
        return find(Symbol::find(name));
    }
    const_iterator find(Symbol symbol) const;
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Room for @p n symbols without rehashing. */
    void reserve(std::size_t n);
    /** Define @p symbol as @p value, or redefine it. */
    void set(Symbol symbol, std::uint16_t value);

  private:
    struct Slot {
        std::uint32_t id = 0; ///< 0: empty
        std::uint32_t entry = 0;
    };

    std::uint32_t slotOf(std::uint32_t id) const;

    std::vector<value_type> entries_;
    std::vector<Slot> slots_; ///< open addressing by symbol id
};

/** Full result of assembling a program. */
struct AssembleResult {
    Image image;
    SymbolTable symbols;
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
 * it over; an lvalue argument is copied. Relaxation rewrites the
 * statement vector in place, so spare capacity in it carries over to
 * AssembleResult::relaxed.
 */
AssembleResult assemble(Program program, const LayoutSpec &layout);

/**
 * Encoded size in bytes of one symbolic instruction (stable across
 * passes; symbolic immediates are always sized with an extension word).
 * A literal operand that does not fit in 16 bits fails, naming @p line.
 */
std::uint16_t instrSize(const AsmInstr &instr, int line = 0);

} // namespace swapram::masm

#endif // SWAPRAM_MASM_ASSEMBLER_HH
