#include "masm/ast.hh"

#include <iterator>

#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::masm {

Expr
Expr::num(std::int64_t value)
{
    Expr e;
    e.kind_ = Kind::Number;
    e.number_ = value;
    return e;
}

Expr
Expr::sym(Symbol symbol)
{
    Expr e;
    e.kind_ = Kind::Symbol;
    e.symbol_ = symbol;
    return e;
}

Expr
Expr::binary(Kind kind, Expr lhs, Expr rhs)
{
    Expr e;
    e.kind_ = kind;
    e.lhs_ = std::make_shared<const Expr>(std::move(lhs));
    e.rhs_ = std::make_shared<const Expr>(std::move(rhs));
    return e;
}

Expr
Expr::add(Expr lhs, Expr rhs)
{
    return binary(Kind::Add, std::move(lhs), std::move(rhs));
}

Expr
Expr::sub(Expr lhs, Expr rhs)
{
    return binary(Kind::Sub, std::move(lhs), std::move(rhs));
}

Expr
Expr::mul(Expr lhs, Expr rhs)
{
    return binary(Kind::Mul, std::move(lhs), std::move(rhs));
}

Expr
Expr::neg(Expr operand)
{
    Expr e;
    e.kind_ = Kind::Neg;
    e.lhs_ = std::make_shared<const Expr>(std::move(operand));
    return e;
}

std::optional<std::int64_t>
Expr::constantFold() const
{
    switch (kind_) {
      case Kind::Number:
        return number_;
      case Kind::Symbol:
        return std::nullopt;
      case Kind::Neg: {
        auto v = lhs_->constantFold();
        if (!v)
            return std::nullopt;
        return -*v;
      }
      default: {
        auto l = lhs_->constantFold();
        auto r = rhs_->constantFold();
        if (!l || !r)
            return std::nullopt;
        switch (kind_) {
          case Kind::Add: return *l + *r;
          case Kind::Sub: return *l - *r;
          case Kind::Mul: return *l * *r;
          case Kind::Div:
            if (*r == 0)
                return std::nullopt;
            return *l / *r;
          case Kind::ShiftLeft: return *l << (*r & 63);
          case Kind::ShiftRight:
            return static_cast<std::int64_t>(
                static_cast<std::uint64_t>(*l) >> (*r & 63));
          case Kind::And: return *l & *r;
          case Kind::Or: return *l | *r;
          default:
            return std::nullopt;
        }
      }
    }
}

std::string
Expr::text() const
{
    switch (kind_) {
      case Kind::Number:
        return std::to_string(number_);
      case Kind::Symbol:
        return symbol_.str();
      case Kind::Neg: {
        std::string out = "-(";
        out += lhs_->text();
        out += ')';
        return out;
      }
      default: {
        const char *op = "?";
        switch (kind_) {
          case Kind::Add: op = "+"; break;
          case Kind::Sub: op = "-"; break;
          case Kind::Mul: op = "*"; break;
          case Kind::Div: op = "/"; break;
          case Kind::ShiftLeft: op = "<<"; break;
          case Kind::ShiftRight: op = ">>"; break;
          case Kind::And: op = "&"; break;
          case Kind::Or: op = "|"; break;
          default: break;
        }
        std::string out = "(";
        out += lhs_->text();
        out += op;
        out += rhs_->text();
        out += ')';
        return out;
      }
    }
}

std::string
AsmOperand::text() const
{
    // Built by appending: GCC 12 warns (-Wrestrict) on
    // "literal" + std::string&&, which inserts at the front.
    std::string out;
    switch (kind) {
      case OperKind::Register:
        return isa::regName(reg);
      case OperKind::Indexed:
        out = expr.text();
        out += '(';
        out += isa::regName(reg);
        out += ')';
        return out;
      case OperKind::SymbolicMem:
        return expr.text();
      case OperKind::Absolute:
        out = "&";
        out += expr.text();
        return out;
      case OperKind::Indirect:
        out = "@";
        out += isa::regName(reg);
        return out;
      case OperKind::IndirectInc:
        out = "@";
        out += isa::regName(reg);
        out += '+';
        return out;
      case OperKind::Immediate:
        out = "#";
        out += expr.text();
        return out;
    }
    support::panic("AsmOperand::text: bad kind");
}

std::string
AsmInstr::text() const
{
    std::string out = isa::opMnemonic(op);
    if (byte)
        out += ".B";
    switch (isa::opFormat(op)) {
      case isa::OpFormat::Jump:
        return out + " " + jump_target.text();
      case isa::OpFormat::SingleOperand:
        if (op == isa::Op::Reti)
            return out;
        return out + " " + dst->text();
      case isa::OpFormat::DoubleOperand:
        return out + " " + src->text() + ", " + dst->text();
    }
    support::panic("AsmInstr::text: bad format");
}

Statement
Statement::makeLabel(Symbol name_, int line_)
{
    Statement s;
    s.kind = Kind::Label;
    s.label = name_;
    s.line = line_;
    return s;
}

Statement
Statement::makeInstr(AsmInstr instr_, int line_)
{
    Statement s;
    s.kind = Kind::Instr;
    s.instr = std::move(instr_);
    s.line = line_;
    return s;
}

Statement
Statement::makeDirective(Directive d, int line_)
{
    Statement s;
    s.kind = Kind::Directive;
    s.directive = d;
    s.line = line_;
    return s;
}

std::string
Statement::text() const
{
    switch (kind) {
      case Kind::Label:
        return label.str() + ":";
      case Kind::Instr:
        return "        " + instr.text();
      case Kind::Directive: {
        auto args_text = [this]() {
            std::string out;
            for (size_t i = 0; i < args.size(); ++i) {
                if (i)
                    out += ", ";
                out += args[i].text();
            }
            return out;
        };
        switch (directive) {
          case Directive::Text: return "        .text";
          case Directive::Const: return "        .const";
          case Directive::Data: return "        .data";
          case Directive::Bss: return "        .bss";
          case Directive::Word: return "        .word " + args_text();
          case Directive::Byte: return "        .byte " + args_text();
          case Directive::Space: return "        .space " + args_text();
          case Directive::Align: return "        .align " + args_text();
          case Directive::Ascii: return "        .ascii \"" + str + "\"";
          case Directive::Asciz: return "        .asciz \"" + str + "\"";
          case Directive::Global: return "        .global " + name.str();
          case Directive::Equ:
            return "        .equ " + name.str() + ", " + args_text();
          case Directive::Func: return "        .func " + name.str();
          case Directive::EndFunc: return "        .endfunc";
        }
        support::panic("Statement::text: bad directive");
      }
    }
    support::panic("Statement::text: bad kind");
}

void
Program::append(Program &&other)
{
    stmts.insert(stmts.end(), std::make_move_iterator(other.stmts.begin()),
                 std::make_move_iterator(other.stmts.end()));
}

std::string
Program::text() const
{
    std::string out;
    for (const Statement &s : stmts) {
        out += s.text();
        out += "\n";
    }
    return out;
}

std::vector<FuncRange>
findFunctions(const Program &program)
{
    std::vector<FuncRange> funcs;
    bool open = false;
    size_t open_idx = 0;
    Symbol open_name;
    for (size_t i = 0; i < program.stmts.size(); ++i) {
        const Statement &s = program.stmts[i];
        if (s.kind != Statement::Kind::Directive)
            continue;
        if (s.directive == Directive::Func) {
            if (open)
                support::fatal("nested .func at line ", s.line);
            open = true;
            open_idx = i;
            open_name = s.name;
        } else if (s.directive == Directive::EndFunc) {
            if (!open)
                support::fatal(".endfunc without .func at line ", s.line);
            funcs.push_back({open_name, open_idx, i});
            open = false;
        }
    }
    if (open)
        support::fatal("unterminated .func ", open_name.str());
    return funcs;
}

AsmInstr
movInstr(AsmOperand src, AsmOperand dst, bool byte)
{
    AsmInstr instr;
    instr.op = isa::Op::Mov;
    instr.byte = byte;
    instr.src = std::move(src);
    instr.dst = std::move(dst);
    return instr;
}

AsmInstr
callImm(Expr target)
{
    AsmInstr instr;
    instr.op = isa::Op::Call;
    instr.dst = AsmOperand::imm(std::move(target));
    return instr;
}

AsmInstr
callAbs(Expr cell_address)
{
    AsmInstr instr;
    instr.op = isa::Op::Call;
    instr.dst = AsmOperand::abs(std::move(cell_address));
    return instr;
}

AsmInstr
brImm(Expr target)
{
    return movInstr(AsmOperand::imm(std::move(target)),
                    AsmOperand::reg_(isa::Reg::PC));
}

AsmInstr
brAbs(Expr cell)
{
    return movInstr(AsmOperand::abs(std::move(cell)),
                    AsmOperand::reg_(isa::Reg::PC));
}

AsmInstr
addImmToAbs(std::int64_t value, Expr cell)
{
    AsmInstr instr;
    instr.op = isa::Op::Add;
    instr.src = AsmOperand::imm(Expr::num(value));
    instr.dst = AsmOperand::abs(std::move(cell));
    return instr;
}

AsmInstr
subImmFromAbs(std::int64_t value, Expr cell)
{
    AsmInstr instr;
    instr.op = isa::Op::Sub;
    instr.src = AsmOperand::imm(Expr::num(value));
    instr.dst = AsmOperand::abs(std::move(cell));
    return instr;
}

AsmInstr
jump(isa::Op op, Expr target)
{
    AsmInstr instr;
    instr.op = op;
    instr.jump_target = std::move(target);
    return instr;
}

} // namespace swapram::masm
