#include "masm/parser.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <functional>
#include <sstream>
#include <unordered_map>

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
    eatPunct(const char *p)
    {
        if (peek().isPunct(p)) {
            next();
            return true;
        }
        return false;
    }

    void
    expectPunct(const char *p)
    {
        if (!eatPunct(p))
            fail(std::string("expected '") + p + "'");
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
parseExprNoBitops(Cursor &cur)
{
    return parseShift(cur);
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
        const Token &t = cur.next();
        if (t.kind != TokKind::Ident)
            cur.fail("expected register after '@'");
        auto reg = isa::parseReg(t.text);
        if (!reg)
            cur.fail("bad register '" + t.text + "'");
        bool post_inc = cur.eatPunct("+");
        return AsmOperand::indirect(*reg, post_inc);
    }
    // Bare register?
    if (cur.peek().kind == TokKind::Ident) {
        auto reg = isa::parseReg(cur.peek().text);
        if (reg) {
            // Only a register if not followed by an arithmetic
            // continuation (a symbol could collide with a register name;
            // we forbid such symbols instead).
            cur.next();
            return AsmOperand::reg_(*reg);
        }
    }
    Expr e = parseExprNoBitops(cur);
    if (cur.eatPunct("(")) {
        const Token &t = cur.next();
        if (t.kind != TokKind::Ident)
            cur.fail("expected register in X(Rn)");
        auto reg = isa::parseReg(t.text);
        if (!reg)
            cur.fail("bad register '" + t.text + "'");
        cur.expectPunct(")");
        return AsmOperand::indexed(*reg, std::move(e));
    }
    return AsmOperand::mem(std::move(e));
}

struct Mnemonic {
    std::string base; ///< upper-case, without suffix
    bool byte = false;
};

Mnemonic
splitMnemonic(const std::string &raw, Cursor &cur)
{
    std::string upper = support::toUpper(raw);
    Mnemonic m;
    size_t dot = upper.rfind('.');
    if (dot != std::string::npos && dot > 0) {
        std::string suffix = upper.substr(dot + 1);
        if (suffix == "B") {
            m.byte = true;
            upper = upper.substr(0, dot);
        } else if (suffix == "W") {
            upper = upper.substr(0, dot);
        } else {
            cur.fail("bad mnemonic suffix '." + suffix + "'");
        }
    }
    m.base = upper;
    return m;
}

AsmInstr
makeFormatI(isa::Op op, bool byte, AsmOperand src, AsmOperand dst)
{
    AsmInstr instr;
    instr.op = op;
    instr.byte = byte;
    instr.src = std::move(src);
    instr.dst = std::move(dst);
    return instr;
}

/** Expand an emulated mnemonic, or return nullopt if not one. */
std::optional<AsmInstr>
expandPseudo(const std::string &base, bool byte,
             std::vector<AsmOperand> ops, Cursor &cur)
{
    using isa::Op;
    auto want = [&](size_t n) {
        if (ops.size() != n) {
            cur.fail(base + " expects " + std::to_string(n) +
                     " operand(s)");
        }
    };
    auto sr = AsmOperand::reg_(isa::Reg::SR);
    auto pc = AsmOperand::reg_(isa::Reg::PC);
    auto immN = [](std::int64_t v) { return AsmOperand::imm(Expr::num(v)); };
    auto sp_inc = AsmOperand::indirect(isa::Reg::SP, true);

    if (base == "NOP") {
        want(0);
        return makeFormatI(Op::Mov, false, immN(0),
                           AsmOperand::reg_(isa::Reg::CG2));
    }
    if (base == "RET") {
        want(0);
        return makeFormatI(Op::Mov, false, sp_inc, pc);
    }
    if (base == "POP") {
        want(1);
        return makeFormatI(Op::Mov, byte, sp_inc, std::move(ops[0]));
    }
    if (base == "BR") {
        want(1);
        return makeFormatI(Op::Mov, false, std::move(ops[0]), pc);
    }
    if (base == "CLR") {
        want(1);
        return makeFormatI(Op::Mov, byte, immN(0), std::move(ops[0]));
    }
    if (base == "CLRC") { want(0); return makeFormatI(Op::Bic, false, immN(1), sr); }
    if (base == "SETC") { want(0); return makeFormatI(Op::Bis, false, immN(1), sr); }
    if (base == "CLRZ") { want(0); return makeFormatI(Op::Bic, false, immN(2), sr); }
    if (base == "SETZ") { want(0); return makeFormatI(Op::Bis, false, immN(2), sr); }
    if (base == "CLRN") { want(0); return makeFormatI(Op::Bic, false, immN(4), sr); }
    if (base == "SETN") { want(0); return makeFormatI(Op::Bis, false, immN(4), sr); }
    if (base == "DINT") { want(0); return makeFormatI(Op::Bic, false, immN(8), sr); }
    if (base == "EINT") { want(0); return makeFormatI(Op::Bis, false, immN(8), sr); }
    if (base == "INC") {
        want(1);
        return makeFormatI(Op::Add, byte, immN(1), std::move(ops[0]));
    }
    if (base == "INCD") {
        want(1);
        return makeFormatI(Op::Add, byte, immN(2), std::move(ops[0]));
    }
    if (base == "DEC") {
        want(1);
        return makeFormatI(Op::Sub, byte, immN(1), std::move(ops[0]));
    }
    if (base == "DECD") {
        want(1);
        return makeFormatI(Op::Sub, byte, immN(2), std::move(ops[0]));
    }
    if (base == "INV") {
        want(1);
        return makeFormatI(Op::Xor, byte, immN(0xFFFF), std::move(ops[0]));
    }
    if (base == "TST") {
        want(1);
        return makeFormatI(Op::Cmp, byte, immN(0), std::move(ops[0]));
    }
    if (base == "ADC") {
        want(1);
        return makeFormatI(Op::Addc, byte, immN(0), std::move(ops[0]));
    }
    if (base == "SBC") {
        want(1);
        return makeFormatI(Op::Subc, byte, immN(0), std::move(ops[0]));
    }
    if (base == "DADC") {
        want(1);
        return makeFormatI(Op::Dadd, byte, immN(0), std::move(ops[0]));
    }
    if (base == "RLA") {
        want(1);
        AsmOperand copy = ops[0];
        return makeFormatI(Op::Add, byte, std::move(copy),
                           std::move(ops[0]));
    }
    if (base == "RLC") {
        want(1);
        AsmOperand copy = ops[0];
        return makeFormatI(Op::Addc, byte, std::move(copy),
                           std::move(ops[0]));
    }
    return std::nullopt;
}

Directive
directiveFromName(const std::string &lower, Cursor &cur)
{
    static const std::unordered_map<std::string, Directive> table = {
        {".text", Directive::Text},   {".const", Directive::Const},
        {".data", Directive::Data},   {".bss", Directive::Bss},
        {".word", Directive::Word},   {".byte", Directive::Byte},
        {".space", Directive::Space}, {".align", Directive::Align},
        {".ascii", Directive::Ascii}, {".asciz", Directive::Asciz},
        {".global", Directive::Global}, {".globl", Directive::Global},
        {".equ", Directive::Equ},     {".set", Directive::Equ},
        {".func", Directive::Func},   {".endfunc", Directive::EndFunc},
    };
    auto it = table.find(lower);
    if (it == table.end())
        cur.fail("unknown directive '" + lower + "'");
    return it->second;
}

void
parseDirective(Cursor &cur, const std::string &name, Program &out)
{
    Directive d = directiveFromName(support::toLower(name), cur);
    Statement stmt = Statement::makeDirective(d, cur.line());
    switch (d) {
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
        stmt.name = t.text;
        break;
      }
      case Directive::Equ: {
        const Token &t = cur.next();
        if (t.kind != TokKind::Ident)
            cur.fail("expected name");
        stmt.name = t.text;
        cur.expectPunct(",");
        stmt.args.push_back(parseExpr(cur));
        break;
      }
    }
    if (!cur.atEnd())
        cur.fail("trailing junk after directive");
    out.stmts.push_back(std::move(stmt));
}

void
parseInstruction(Cursor &cur, const std::string &raw, Program &out)
{
    Mnemonic m = splitMnemonic(raw, cur);
    std::vector<AsmOperand> ops;
    // RETI and pseudo-ops with zero operands have nothing to parse.
    if (!cur.atEnd()) {
        ops.push_back(parseOperand(cur));
        while (cur.eatPunct(","))
            ops.push_back(parseOperand(cur));
    }
    if (!cur.atEnd())
        cur.fail("trailing junk after instruction");

    if (auto pseudo = expandPseudo(m.base, m.byte, ops, cur)) {
        out.stmts.push_back(
            Statement::makeInstr(std::move(*pseudo), cur.line()));
        return;
    }

    auto op = isa::parseOp(m.base);
    if (!op)
        cur.fail("unknown mnemonic '" + m.base + "'");
    if (m.byte && !isa::supportsByte(*op))
        cur.fail(m.base + " has no .B form");

    AsmInstr instr;
    instr.op = *op;
    instr.byte = m.byte;
    switch (isa::opFormat(*op)) {
      case isa::OpFormat::Jump: {
        if (ops.size() != 1)
            cur.fail("jump expects one target");
        const AsmOperand &target = ops[0];
        if (target.kind != OperKind::SymbolicMem)
            cur.fail("jump target must be a label/expression");
        instr.jump_target = target.expr;
        break;
      }
      case isa::OpFormat::SingleOperand: {
        if (*op == isa::Op::Reti) {
            if (!ops.empty())
                cur.fail("RETI takes no operand");
            break;
        }
        if (ops.size() != 1)
            cur.fail(m.base + " expects one operand");
        instr.dst = std::move(ops[0]);
        break;
      }
      case isa::OpFormat::DoubleOperand: {
        if (ops.size() != 2)
            cur.fail(m.base + " expects two operands");
        instr.src = std::move(ops[0]);
        instr.dst = std::move(ops[1]);
        break;
      }
    }
    out.stmts.push_back(Statement::makeInstr(std::move(instr), cur.line()));
}

/** Running total behind statementsParsed(). */
thread_local std::uint64_t t_statements_parsed = 0;

} // namespace

Program
parse(const std::string &source)
{
    Program program;
    std::istringstream stream(source);
    std::string line_text;
    int line = 0;
    while (std::getline(stream, line_text)) {
        ++line;
        std::vector<Token> tokens = lexLine(line_text, line);
        Cursor cur(tokens, line);
        // Leading labels.
        while (cur.peek().kind == TokKind::Ident &&
               cur.peek().text[0] != '.') {
            // Lookahead for ':' requires a second cursor trick: labels and
            // mnemonics are both idents; a label is an ident followed by
            // ':'.
            Token ident = cur.peek();
            Cursor probe = cur;
            probe.next();
            if (!probe.peek().isPunct(":"))
                break;
            cur.next();
            cur.next(); // ':'
            program.stmts.push_back(
                Statement::makeLabel(ident.text, line));
        }
        if (cur.atEnd())
            continue;
        const Token &head = cur.peek();
        if (head.kind != TokKind::Ident)
            cur.fail("expected mnemonic or directive");
        std::string name = head.text;
        cur.next();
        if (name[0] == '.')
            parseDirective(cur, name, program);
        else
            parseInstruction(cur, name, program);
    }
    t_statements_parsed += program.stmts.size();
    return program;
}

std::uint64_t
statementsParsed()
{
    return t_statements_parsed;
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
