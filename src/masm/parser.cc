#include "masm/parser.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>
#include <utility>

#include "masm/lexer.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::masm {

namespace {

/** Token cursor over one line. */
class Cursor
{
  public:
    Cursor(const std::vector<Token> &tokens, int line)
        : tokens_(tokens), line_(line)
    {}

    const Token &peek() const { return tokens_[pos_]; }
    /** The token after peek() (peek() must not be the End). */
    const Token &peekNext() const { return tokens_[pos_ + 1]; }
    const Token &
    next()
    {
        const Token &t = tokens_[pos_];
        if (t.kind != TokKind::End)
            ++pos_;
        return t;
    }
    bool atEnd() const { return peek().kind == TokKind::End; }

    bool
    eatPunct(std::string_view p)
    {
        if (peek().isPunct(p)) {
            next();
            return true;
        }
        return false;
    }

    void
    expectPunct(std::string_view p)
    {
        if (!eatPunct(p))
            fail(support::cat("expected '", p, "'"));
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        support::fatal("line ", line_, ": ", what);
    }

    int line() const { return line_; }

  private:
    const std::vector<Token> &tokens_;
    int line_;
    size_t pos_ = 0;
};

Expr parseExpr(Cursor &cur);

Expr
parsePrimary(Cursor &cur)
{
    const Token &t = cur.peek();
    if (t.kind == TokKind::Number) {
        cur.next();
        return Expr::num(t.number);
    }
    if (t.kind == TokKind::Ident) {
        cur.next();
        return Expr::sym(t.text);
    }
    if (t.isPunct("(")) {
        cur.next();
        Expr inner = parseExpr(cur);
        cur.expectPunct(")");
        return inner;
    }
    cur.fail("expected expression");
}

Expr
parseUnary(Cursor &cur)
{
    if (cur.eatPunct("-"))
        return Expr::neg(parseUnary(cur));
    if (cur.eatPunct("+"))
        return parseUnary(cur);
    return parsePrimary(cur);
}

Expr
parseMul(Cursor &cur)
{
    Expr lhs = parseUnary(cur);
    while (true) {
        if (cur.eatPunct("*"))
            lhs = Expr::binary(Expr::Kind::Mul, std::move(lhs),
                               parseUnary(cur));
        else if (cur.eatPunct("/"))
            lhs = Expr::binary(Expr::Kind::Div, std::move(lhs),
                               parseUnary(cur));
        else
            return lhs;
    }
}

Expr
parseAdd(Cursor &cur)
{
    Expr lhs = parseMul(cur);
    while (true) {
        if (cur.eatPunct("+"))
            lhs = Expr::add(std::move(lhs), parseMul(cur));
        else if (cur.eatPunct("-"))
            lhs = Expr::sub(std::move(lhs), parseMul(cur));
        else
            return lhs;
    }
}

Expr
parseShift(Cursor &cur)
{
    Expr lhs = parseAdd(cur);
    while (true) {
        if (cur.eatPunct("<<"))
            lhs = Expr::binary(Expr::Kind::ShiftLeft, std::move(lhs),
                               parseAdd(cur));
        else if (cur.eatPunct(">>"))
            lhs = Expr::binary(Expr::Kind::ShiftRight, std::move(lhs),
                               parseAdd(cur));
        else
            return lhs;
    }
}

Expr
parseExpr(Cursor &cur)
{
    Expr lhs = parseShift(cur);
    while (true) {
        if (cur.eatPunct("&"))
            lhs = Expr::binary(Expr::Kind::And, std::move(lhs),
                               parseShift(cur));
        else if (cur.eatPunct("|"))
            lhs = Expr::binary(Expr::Kind::Or, std::move(lhs),
                               parseShift(cur));
        else
            return lhs;
    }
}

/** The register a register-operand token names. */
isa::Reg
registerAfter(Cursor &cur, const char *expected)
{
    const Token &t = cur.next();
    if (t.kind != TokKind::Ident)
        cur.fail(expected);
    auto reg = isa::parseReg(t.text);
    if (!reg)
        cur.fail(support::cat("bad register '", t.text, "'"));
    return *reg;
}

/**
 * Parse one operand. Binary '&'/'|' are not allowed at the top level of a
 * bare-expression operand (the '&' prefix means absolute mode); use
 * parentheses for them.
 */
AsmOperand
parseOperand(Cursor &cur)
{
    if (cur.eatPunct("#"))
        return AsmOperand::imm(parseExpr(cur));
    if (cur.eatPunct("&"))
        return AsmOperand::abs(parseExpr(cur));
    if (cur.eatPunct("@")) {
        isa::Reg reg = registerAfter(cur, "expected register after '@'");
        bool post_inc = cur.eatPunct("+");
        return AsmOperand::indirect(reg, post_inc);
    }
    // Bare register? (A symbol may not be named like a register.)
    if (cur.peek().kind == TokKind::Ident) {
        if (auto reg = isa::parseReg(cur.peek().text)) {
            cur.next();
            return AsmOperand::reg_(*reg);
        }
    }
    Expr e = parseShift(cur);
    if (cur.eatPunct("(")) {
        isa::Reg reg = registerAfter(cur, "expected register in X(Rn)");
        cur.expectPunct(")");
        return AsmOperand::indexed(reg, std::move(e));
    }
    return AsmOperand::mem(std::move(e));
}

/** ASCII upper case (mnemonics, registers and suffixes are ASCII). */
char
upper(char c)
{
    return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/** Case-insensitive equality with the upper-case @p want. */
bool
equalsUpper(std::string_view text, std::string_view want)
{
    if (text.size() != want.size())
        return false;
    for (size_t i = 0; i < text.size(); ++i) {
        if (upper(text[i]) != want[i])
            return false;
    }
    return true;
}

/** Case-insensitive order of @p text against the upper-case @p name. */
bool
lessUpper(std::string_view name, std::string_view text)
{
    const size_t n = std::min(name.size(), text.size());
    for (size_t i = 0; i < n; ++i) {
        char c = upper(text[i]);
        if (name[i] != c)
            return name[i] < c;
    }
    return name.size() < text.size();
}

/** How a mnemonic becomes one core instruction. The emulated
 *  mnemonics expand as the MSP430 assembler defines them. */
enum class Form : std::uint8_t {
    Core,   ///< a core op, operands as written
    Const,  ///< no operand: op #imm, reg (NOP, CLRC ... EINT)
    Ret,    ///< RET: MOV @SP+, PC
    Pop,    ///< POP dst: MOV @SP+, dst
    Br,     ///< BR src: MOV src, PC
    ImmDst, ///< one operand: op #imm, dst (CLR, INC, TST, ...)
    DupDst, ///< one operand: op dst, dst (RLA, RLC)
};

struct Mnemonic {
    std::string_view name; ///< upper case, without suffix
    isa::Op op;
    Form form = Form::Core;
    std::int64_t imm = 0;        ///< Const/ImmDst source immediate
    isa::Reg reg = isa::Reg::PC; ///< Const destination
};

/** Every mnemonic, core and emulated, sorted by name. */
constexpr Mnemonic kMnemonics[] = {
    {"ADC", isa::Op::Addc, Form::ImmDst, 0},
    {"ADD", isa::Op::Add},
    {"ADDC", isa::Op::Addc},
    {"AND", isa::Op::And},
    {"BIC", isa::Op::Bic},
    {"BIS", isa::Op::Bis},
    {"BIT", isa::Op::Bit},
    {"BR", isa::Op::Mov, Form::Br},
    {"CALL", isa::Op::Call},
    {"CLR", isa::Op::Mov, Form::ImmDst, 0},
    {"CLRC", isa::Op::Bic, Form::Const, 1, isa::Reg::SR},
    {"CLRN", isa::Op::Bic, Form::Const, 4, isa::Reg::SR},
    {"CLRZ", isa::Op::Bic, Form::Const, 2, isa::Reg::SR},
    {"CMP", isa::Op::Cmp},
    {"DADC", isa::Op::Dadd, Form::ImmDst, 0},
    {"DADD", isa::Op::Dadd},
    {"DEC", isa::Op::Sub, Form::ImmDst, 1},
    {"DECD", isa::Op::Sub, Form::ImmDst, 2},
    {"DINT", isa::Op::Bic, Form::Const, 8, isa::Reg::SR},
    {"EINT", isa::Op::Bis, Form::Const, 8, isa::Reg::SR},
    {"INC", isa::Op::Add, Form::ImmDst, 1},
    {"INCD", isa::Op::Add, Form::ImmDst, 2},
    {"INV", isa::Op::Xor, Form::ImmDst, 0xFFFF},
    {"JC", isa::Op::Jc},
    {"JEQ", isa::Op::Jeq},
    {"JGE", isa::Op::Jge},
    {"JHS", isa::Op::Jc},
    {"JL", isa::Op::Jl},
    {"JLO", isa::Op::Jnc},
    {"JMP", isa::Op::Jmp},
    {"JN", isa::Op::Jn},
    {"JNC", isa::Op::Jnc},
    {"JNE", isa::Op::Jne},
    {"JNZ", isa::Op::Jne},
    {"JZ", isa::Op::Jeq},
    {"MOV", isa::Op::Mov},
    {"NOP", isa::Op::Mov, Form::Const, 0, isa::Reg::CG2},
    {"POP", isa::Op::Mov, Form::Pop},
    {"PUSH", isa::Op::Push},
    {"RET", isa::Op::Mov, Form::Ret},
    {"RETI", isa::Op::Reti},
    {"RLA", isa::Op::Add, Form::DupDst},
    {"RLC", isa::Op::Addc, Form::DupDst},
    {"RRA", isa::Op::Rra},
    {"RRC", isa::Op::Rrc},
    {"SBC", isa::Op::Subc, Form::ImmDst, 0},
    {"SETC", isa::Op::Bis, Form::Const, 1, isa::Reg::SR},
    {"SETN", isa::Op::Bis, Form::Const, 4, isa::Reg::SR},
    {"SETZ", isa::Op::Bis, Form::Const, 2, isa::Reg::SR},
    {"SUB", isa::Op::Sub},
    {"SUBC", isa::Op::Subc},
    {"SWPB", isa::Op::Swpb},
    {"SXT", isa::Op::Sxt},
    {"TST", isa::Op::Cmp, Form::ImmDst, 0},
    {"XOR", isa::Op::Xor},
};

struct DirectiveName {
    std::string_view name; ///< upper case
    Directive directive;
};

/** Every directive, sorted by name. */
constexpr DirectiveName kDirectives[] = {
    {".ALIGN", Directive::Align},   {".ASCII", Directive::Ascii},
    {".ASCIZ", Directive::Asciz},   {".BSS", Directive::Bss},
    {".BYTE", Directive::Byte},     {".CONST", Directive::Const},
    {".DATA", Directive::Data},     {".ENDFUNC", Directive::EndFunc},
    {".EQU", Directive::Equ},       {".FUNC", Directive::Func},
    {".GLOBAL", Directive::Global}, {".GLOBL", Directive::Global},
    {".SET", Directive::Equ},       {".SPACE", Directive::Space},
    {".TEXT", Directive::Text},     {".WORD", Directive::Word},
};

template <typename Entry, size_t N>
constexpr bool
sortedByName(const Entry (&table)[N])
{
    for (size_t i = 1; i < N; ++i) {
        if (!(table[i - 1].name < table[i].name))
            return false;
    }
    return true;
}

static_assert(sortedByName(kMnemonics));
static_assert(sortedByName(kDirectives));

/** Case-insensitive binary search of a name-sorted table. */
template <typename Entry, size_t N>
const Entry *
findName(const Entry (&table)[N], std::string_view text)
{
    const Entry *it = std::lower_bound(
        std::begin(table), std::end(table), text,
        [](const Entry &e, std::string_view t) {
            return lessUpper(e.name, t);
        });
    if (it == std::end(table) || !equalsUpper(text, it->name))
        return nullptr;
    return it;
}

Statement &
newStatement(Program &out, Statement::Kind kind, int line)
{
    Statement &stmt = out.stmts.emplace_back();
    stmt.kind = kind;
    stmt.line = line;
    return stmt;
}

void
parseDirective(Cursor &cur, std::string_view name, Program &out)
{
    const DirectiveName *entry = findName(kDirectives, name);
    if (!entry) {
        cur.fail(support::cat("unknown directive '", support::toLower(name),
                              "'"));
    }
    Statement &stmt =
        newStatement(out, Statement::Kind::Directive, cur.line());
    stmt.directive = entry->directive;
    switch (stmt.directive) {
      case Directive::Text:
      case Directive::Const:
      case Directive::Data:
      case Directive::Bss:
      case Directive::EndFunc:
        break;
      case Directive::Word:
      case Directive::Byte:
      case Directive::Space:
      case Directive::Align: {
        stmt.args.push_back(parseExpr(cur));
        while (cur.eatPunct(","))
            stmt.args.push_back(parseExpr(cur));
        break;
      }
      case Directive::Ascii:
      case Directive::Asciz: {
        const Token &t = cur.next();
        if (t.kind != TokKind::String)
            cur.fail("expected string literal");
        stmt.str = t.text;
        break;
      }
      case Directive::Global:
      case Directive::Func: {
        const Token &t = cur.next();
        if (t.kind != TokKind::Ident)
            cur.fail("expected name");
        stmt.name = Symbol(t.text);
        break;
      }
      case Directive::Equ: {
        const Token &t = cur.next();
        if (t.kind != TokKind::Ident)
            cur.fail("expected name");
        stmt.name = Symbol(t.text);
        cur.expectPunct(",");
        stmt.args.push_back(parseExpr(cur));
        break;
      }
    }
    if (!cur.atEnd())
        cur.fail("trailing junk after directive");
}

void
parseInstruction(Cursor &cur, std::string_view raw, Program &out)
{
    // Split an optional .B/.W suffix off the mnemonic.
    std::string_view base = raw;
    bool byte = false;
    size_t dot = raw.rfind('.');
    if (dot != std::string_view::npos && dot > 0) {
        std::string_view suffix = raw.substr(dot + 1);
        if (equalsUpper(suffix, "B"))
            byte = true;
        else if (!equalsUpper(suffix, "W"))
            cur.fail(support::cat("bad mnemonic suffix '.",
                                  support::toUpper(suffix), "'"));
        base = raw.substr(0, dot);
    }
    const Mnemonic *m = findName(kMnemonics, base);

    // Operands: the first two are kept, the rest only counted.
    AsmOperand ops[2];
    size_t n_ops = 0;
    if (!cur.atEnd()) {
        do {
            AsmOperand op = parseOperand(cur);
            if (n_ops < 2)
                ops[n_ops] = std::move(op);
            ++n_ops;
        } while (cur.eatPunct(","));
    }
    if (!cur.atEnd())
        cur.fail("trailing junk after instruction");
    if (!m) {
        cur.fail(support::cat("unknown mnemonic '", support::toUpper(base),
                              "'"));
    }

    auto sp_inc = [] { return AsmOperand::indirect(isa::Reg::SP, true); };
    auto pc = [] { return AsmOperand::reg_(isa::Reg::PC); };
    auto imm = [m] { return AsmOperand::imm(Expr::num(m->imm)); };
    if (m->form != Form::Core) {
        const size_t want =
            m->form == Form::Const || m->form == Form::Ret ? 0 : 1;
        if (n_ops != want) {
            cur.fail(support::cat(m->name, " expects ", want,
                                  " operand(s)"));
        }
        AsmInstr &in =
            newStatement(out, Statement::Kind::Instr, cur.line()).instr;
        in.op = m->op;
        // Only the forms with a written destination honour .B.
        in.byte = byte && (m->form == Form::Pop || m->form == Form::ImmDst ||
                           m->form == Form::DupDst);
        switch (m->form) {
          case Form::Core:
            break;
          case Form::Const:
            in.src = imm();
            in.dst = AsmOperand::reg_(m->reg);
            break;
          case Form::Ret:
            in.src = sp_inc();
            in.dst = pc();
            break;
          case Form::Pop:
            in.src = sp_inc();
            in.dst = std::move(ops[0]);
            break;
          case Form::Br:
            in.src = std::move(ops[0]);
            in.dst = pc();
            break;
          case Form::ImmDst:
            in.src = imm();
            in.dst = std::move(ops[0]);
            break;
          case Form::DupDst:
            in.src = ops[0];
            in.dst = std::move(ops[0]);
            break;
        }
        return;
    }

    if (byte && !isa::supportsByte(m->op))
        cur.fail(support::cat(m->name, " has no .B form"));
    switch (isa::opFormat(m->op)) {
      case isa::OpFormat::Jump:
        if (n_ops != 1)
            cur.fail("jump expects one target");
        if (ops[0].kind != OperKind::SymbolicMem)
            cur.fail("jump target must be a label/expression");
        break;
      case isa::OpFormat::SingleOperand:
        if (m->op == isa::Op::Reti) {
            if (n_ops != 0)
                cur.fail("RETI takes no operand");
        } else if (n_ops != 1) {
            cur.fail(support::cat(m->name, " expects one operand"));
        }
        break;
      case isa::OpFormat::DoubleOperand:
        if (n_ops != 2)
            cur.fail(support::cat(m->name, " expects two operands"));
        break;
    }
    AsmInstr &in =
        newStatement(out, Statement::Kind::Instr, cur.line()).instr;
    in.op = m->op;
    in.byte = byte;
    if (isa::opFormat(m->op) == isa::OpFormat::Jump) {
        in.jump_target = std::move(ops[0].expr);
    } else if (n_ops == 2) {
        in.src = std::move(ops[0]);
        in.dst = std::move(ops[1]);
    } else if (n_ops == 1) {
        in.dst = std::move(ops[0]);
    }
}

} // namespace

void
parseAppend(const std::string &source, Program &program)
{
    // At most a statement per line plus one per label (each label
    // ends in ':'): at most one allocation, no regrowth moves.
    size_t bound = 1;
    for (char c : source)
        bound += c == '\n' || c == ':';
    const size_t before = program.stmts.size();
    program.stmts.reserve(before + bound);
    Lexer lexer;
    std::string_view rest = source;
    int line = 0;
    while (!rest.empty()) {
        // One line, as std::getline would split it.
        const size_t eol = rest.find('\n');
        const std::string_view text = rest.substr(0, eol);
        rest.remove_prefix(eol == std::string_view::npos ? rest.size()
                                                         : eol + 1);
        ++line;
        Cursor cur(lexer.lex(text, line), line);
        // Leading labels: an identifier followed by ':'.
        while (cur.peek().kind == TokKind::Ident &&
               cur.peek().text[0] != '.' && cur.peekNext().isPunct(":")) {
            newStatement(program, Statement::Kind::Label, line).label =
                Symbol(cur.next().text);
            cur.next(); // ':'
        }
        if (cur.atEnd())
            continue;
        const Token &head = cur.next();
        if (head.kind != TokKind::Ident)
            cur.fail("expected mnemonic or directive");
        if (head.text[0] == '.')
            parseDirective(cur, head.text, program);
        else
            parseInstruction(cur, head.text, program);
    }
}

Program
parse(const std::string &source)
{
    Program program;
    parseAppend(source, program);
    return program;
}

std::shared_ptr<const Program>
ParseMemo::get(const std::string &source)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!program_ || source_ != source) {
        program_ = std::make_shared<const Program>(parse(source));
        source_ = source;
    }
    return program_;
}

std::string
mapSourceLines(std::string_view message,
               const std::vector<SourcePart> &parts)
{
    // First line of each part, numbered like parse() numbers the whole.
    std::vector<long> first;
    long next_line = 1;
    for (const SourcePart &part : parts) {
        first.push_back(next_line);
        next_line += std::count(part.text.begin(), part.text.end(), '\n');
    }
    constexpr std::string_view kKey = "line ";
    std::string out;
    std::size_t pos = 0;
    for (std::size_t at; (at = message.find(kKey, pos)) !=
                         std::string_view::npos;) {
        std::size_t digits = at + kKey.size(), end = digits;
        while (end < message.size() &&
               std::isdigit(static_cast<unsigned char>(message[end])))
            ++end;
        out.append(message.substr(pos, at - pos));
        pos = end;
        long line = 0;
        std::from_chars(message.data() + digits, message.data() + end,
                        line);
        // The last non-empty part starting at or before the line.
        std::size_t i = parts.size();
        while (i > 0 && (parts[i - 1].text.empty() || first[i - 1] > line))
            --i;
        if (line > 0 && i > 0)
            out += support::cat(parts[i - 1].name, ':',
                                line - first[i - 1] + 1);
        else
            out.append(message.substr(at, end - at));
    }
    out.append(message.substr(pos));
    return out;
}

} // namespace swapram::masm
