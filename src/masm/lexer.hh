/**
 * @file
 * Line-oriented tokenizer for the assembler.
 */

#ifndef SWAPRAM_MASM_LEXER_HH
#define SWAPRAM_MASM_LEXER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace swapram::masm {

/** Token kinds produced by the lexer. */
enum class TokKind : std::uint8_t {
    Ident,  ///< identifier or mnemonic (may contain '.', '_', '$')
    Number, ///< integer literal (decimal, 0x..., 0b..., 'c')
    String, ///< double-quoted string (unescaped payload in text)
    Punct,  ///< punctuation, possibly two chars ("<<", ">>")
    End,    ///< end of line
};

/** One token. Its text views the lexed line, or the lexer's own
 *  buffer for a string payload that had escapes. */
struct Token {
    TokKind kind = TokKind::End;
    std::string_view text;   ///< identifier/punct text, string payload
    std::int64_t number = 0; ///< value for Number
    int column = 0;          ///< 0-based start column

    bool
    isPunct(std::string_view p) const
    {
        return kind == TokKind::Punct && text == p;
    }
};

/**
 * Tokenizer that reuses its buffers from line to line. Comments (';'
 * to end of line) are stripped.
 */
class Lexer
{
  public:
    /**
     * Tokenize one source line, ending with an End token. The tokens
     * view @p text and this lexer, so they stay valid until the next
     * call or until @p text goes away. fatal()s on malformed literals,
     * mentioning @p line for diagnostics.
     */
    const std::vector<Token> &lex(std::string_view text, int line);

  private:
    std::vector<Token> tokens_;
    /** Unescaped string payloads of the current line. */
    std::string payloads_;
};

} // namespace swapram::masm

#endif // SWAPRAM_MASM_LEXER_HH
