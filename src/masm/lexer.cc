#include "masm/lexer.hh"

#include <array>

#include "support/logging.hh"

namespace swapram::masm {

namespace {

/** Character classes, one table lookup per character. */
enum : std::uint8_t {
    kSpace = 0x01,      ///< isspace() in the C locale
    kIdentStart = 0x02, ///< letter, '_', '$', '.'
    kDigit = 0x04,      ///< 0-9
    kHexDigit = 0x08,   ///< 0-9, a-f, A-F
    kPunct = 0x10,      ///< a one-character punctuation token
};

constexpr std::array<std::uint8_t, 256>
makeClasses()
{
    std::array<std::uint8_t, 256> t{};
    for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        t[c] |= kSpace;
    for (int c = 'a'; c <= 'z'; ++c)
        t[c] |= kIdentStart;
    for (int c = 'A'; c <= 'Z'; ++c)
        t[c] |= kIdentStart;
    for (unsigned char c : {'_', '$', '.'})
        t[c] |= kIdentStart;
    for (int c = '0'; c <= '9'; ++c)
        t[c] |= kDigit | kHexDigit;
    for (int c = 'a'; c <= 'f'; ++c)
        t[c] |= kHexDigit;
    for (int c = 'A'; c <= 'F'; ++c)
        t[c] |= kHexDigit;
    for (unsigned char c : {':', ',', '#', '&', '@', '+', '-', '*', '/',
                            '(', ')', '|'})
        t[c] |= kPunct;
    return t;
}

constexpr std::array<std::uint8_t, 256> kClasses = makeClasses();

bool
is(char c, std::uint8_t cls)
{
    return kClasses[static_cast<unsigned char>(c)] & cls;
}

bool
identCont(char c)
{
    return is(c, kIdentStart | kDigit);
}

char
unescape(char c, int line)
{
    switch (c) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case '\\': return '\\';
      case '\'': return '\'';
      case '"': return '"';
      default:
        support::fatal("line ", line, ": bad escape \\", c);
    }
}

} // namespace

const std::vector<Token> &
Lexer::lex(std::string_view text, int line)
{
    tokens_.clear();
    payloads_.clear();
    size_t i = 0;
    const size_t n = text.size();
    while (i < n) {
        char c = text[i];
        if (c == ';')
            break; // comment to end of line
        if (is(c, kSpace)) {
            ++i;
            continue;
        }
        Token &tok = tokens_.emplace_back();
        tok.column = static_cast<int>(i);
        if (is(c, kIdentStart)) {
            size_t start = i;
            while (i < n && identCont(text[i]))
                ++i;
            tok.kind = TokKind::Ident;
            tok.text = text.substr(start, i - start);
            continue;
        }
        if (is(c, kDigit)) {
            size_t start = i;
            std::uint64_t value = 0;
            if (c == '0' && i + 1 < n &&
                (text[i + 1] == 'x' || text[i + 1] == 'X')) {
                i += 2;
                if (i >= n || !is(text[i], kHexDigit))
                    support::fatal("line ", line, ": bad hex literal");
                while (i < n && is(text[i], kHexDigit)) {
                    char d = text[i];
                    int digit = is(d, kDigit) ? d - '0'
                                              : ((d | 0x20) - 'a' + 10);
                    value = value * 16 + digit;
                    ++i;
                }
            } else if (c == '0' && i + 1 < n &&
                       (text[i + 1] == 'b' || text[i + 1] == 'B')) {
                i += 2;
                if (i >= n || (text[i] != '0' && text[i] != '1'))
                    support::fatal("line ", line, ": bad binary literal");
                while (i < n && (text[i] == '0' || text[i] == '1')) {
                    value = value * 2 + (text[i] - '0');
                    ++i;
                }
            } else {
                while (i < n && is(text[i], kDigit)) {
                    value = value * 10 + (text[i] - '0');
                    ++i;
                }
            }
            if (i < n && identCont(text[i])) {
                support::fatal("line ", line, ": bad number near '",
                               text.substr(start, i - start + 1), "'");
            }
            tok.kind = TokKind::Number;
            tok.number = static_cast<std::int64_t>(value);
            continue;
        }
        if (c == '\'') {
            ++i;
            if (i >= n)
                support::fatal("line ", line, ": unterminated char literal");
            char value = text[i];
            if (value == '\\') {
                ++i;
                if (i >= n)
                    support::fatal("line ", line, ": bad char literal");
                value = unescape(text[i], line);
            }
            ++i;
            if (i >= n || text[i] != '\'')
                support::fatal("line ", line, ": unterminated char literal");
            ++i;
            tok.kind = TokKind::Number;
            tok.number = static_cast<unsigned char>(value);
            continue;
        }
        if (c == '"') {
            size_t start = ++i;
            while (i < n && text[i] != '"' && text[i] != '\\')
                ++i;
            tok.kind = TokKind::String;
            if (i < n && text[i] == '"') {
                // No escapes: the payload is a view of the line.
                tok.text = text.substr(start, i - start);
                ++i;
                continue;
            }
            // Escapes: unescape into the lexer's buffer. Payloads are
            // never longer than the line, so once the buffer holds
            // the line's length it does not move until the next line.
            payloads_.reserve(n);
            const size_t offset = payloads_.size();
            payloads_.append(text.substr(start, i - start));
            while (i < n && text[i] != '"') {
                if (text[i] == '\\') {
                    ++i;
                    if (i >= n)
                        support::fatal("line ", line, ": bad escape");
                    payloads_ += unescape(text[i], line);
                } else {
                    payloads_ += text[i];
                }
                ++i;
            }
            if (i >= n)
                support::fatal("line ", line, ": unterminated string");
            ++i;
            tok.text = std::string_view(payloads_).substr(offset);
            continue;
        }
        // Punctuation, two-char shifts first.
        if ((c == '<' || c == '>') && i + 1 < n && text[i + 1] == c) {
            tok.kind = TokKind::Punct;
            tok.text = text.substr(i, 2);
            i += 2;
            continue;
        }
        if (is(c, kPunct)) {
            tok.kind = TokKind::Punct;
            tok.text = text.substr(i, 1);
            ++i;
            continue;
        }
        support::fatal("line ", line, ": unexpected character '", c, "'");
    }
    Token &end = tokens_.emplace_back();
    end.column = static_cast<int>(n);
    return tokens_;
}

} // namespace swapram::masm
