/**
 * @file
 * Parser: assembler source text -> Program AST.
 *
 * Accepts a gcc-flavoured MSP430 syntax: optional `label:` prefixes,
 * core and emulated mnemonics with optional .B/.W suffix, and the
 * directives listed in masm/ast.hh. Emulated instructions (RET, BR, POP,
 * CLR, INC, ...) are expanded into core instructions here, exactly as the
 * MSP430 assembler defines them.
 */

#ifndef SWAPRAM_MASM_PARSER_HH
#define SWAPRAM_MASM_PARSER_HH

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "masm/ast.hh"

namespace swapram::masm {

/** Parse @p source into a Program. fatal()s with line diagnostics. */
Program parse(const std::string &source);

/** Parse @p source onto the end of @p program, its lines numbered from
 *  1 as parse() numbers them. Grows the statement vector at most once.
 *  On a parse error @p program keeps the statements before it. */
void parseAppend(const std::string &source, Program &program);

/**
 * The parse of one source text, kept for reuse. Holders share it
 * through a shared_ptr; concurrent first use parses once. The Program
 * is immutable: callers copy the statements they go on to rewrite.
 */
class ParseMemo
{
  public:
    /** The parse of @p source: the kept one when it was parsed from
     *  the same text, else a fresh parse that replaces it. Parse errors
     *  propagate as parse() throws them (lines counted in @p source). */
    std::shared_ptr<const Program> get(const std::string &source);

  private:
    std::mutex mutex_;
    std::string source_; ///< the text program_ was parsed from
    std::shared_ptr<const Program> program_;
};

/** One named piece of a source parsed as a concatenation. */
struct SourcePart {
    std::string_view name;
    std::string_view text;
};

/**
 * Rewrite each "line N" in @p message, N counted over the
 * concatenation of @p parts as parse() counts it, as "NAME:M", M
 * counted within the part that holds line N. It rescans the parts on
 * every call, so it belongs on error paths only.
 */
std::string mapSourceLines(std::string_view message,
                           const std::vector<SourcePart> &parts);

} // namespace swapram::masm

#endif // SWAPRAM_MASM_PARSER_HH
