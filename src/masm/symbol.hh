/**
 * @file
 * Interned symbol names.
 *
 * Every label, .func, .equ and symbol reference in a Program carries
 * a Symbol: a 32-bit id that stands for its name. Equal names get
 * equal ids for the life of the process, so the assembler and the
 * passes compare and index symbols by id, and hash a name only once,
 * when the parser (or a pass that makes one up) interns it.
 *
 * The interner is shared by every thread. Interning a name that is
 * already known takes no lock: it probes an open-addressing table of
 * atomic slots. A new name is added under a mutex. Names are never
 * removed or moved, so a name's string stays valid, and ids stay
 * dense, for the life of the process.
 */

#ifndef SWAPRAM_MASM_SYMBOL_HH
#define SWAPRAM_MASM_SYMBOL_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace swapram::masm {

/** An interned name. The default Symbol is the empty name (id 0). */
class Symbol
{
  public:
    constexpr Symbol() = default;

    /** The symbol named @p name, interning it when it is new. */
    explicit Symbol(std::string_view name);

    /** The symbol named @p name if it was interned before, else the
     *  empty Symbol. Interns nothing. */
    static Symbol find(std::string_view name);

    /** One past the largest id interned so far: the size of a table
     *  indexed by id that covers every symbol this thread has seen
     *  (a new id's bound is raised before the id can be found). */
    static std::uint32_t bound();

    std::uint32_t id() const { return id_; }
    bool empty() const { return id_ == 0; }

    /** The name ("" for the empty Symbol). */
    const std::string &str() const;

    friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
    friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }

  private:
    explicit constexpr Symbol(std::uint32_t id) : id_(id) {}

    std::uint32_t id_ = 0;
};

} // namespace swapram::masm

#endif // SWAPRAM_MASM_SYMBOL_HH
