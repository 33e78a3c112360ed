/**
 * @file
 * Assembly-level program representation.
 *
 * This AST is both the assembler's input and the IR that the SwapRAM and
 * block-cache instrumentation passes transform, mirroring the paper's
 * "assembly-level pass" design (§3.1): parse gcc-flavoured MSP430 assembly
 * into Statements, rewrite call sites / branches, then assemble.
 */

#ifndef SWAPRAM_MASM_AST_HH
#define SWAPRAM_MASM_AST_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instruction.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"
#include "masm/symbol.hh"

namespace swapram::masm {

/**
 * Symbolic integer expression (labels, numbers, arithmetic).
 * Value semantics with shared immutable children so Statements copy
 * cheaply inside transformation passes.
 */
class Expr
{
  public:
    enum class Kind : std::uint8_t {
        Number,
        Symbol,
        Add,
        Sub,
        Mul,
        Div,
        ShiftLeft,
        ShiftRight,
        And,
        Or,
        Neg,
    };

    Expr() : kind_(Kind::Number), number_(0) {}

    static Expr num(std::int64_t value);
    static Expr sym(Symbol symbol);
    static Expr sym(std::string_view name) { return sym(Symbol(name)); }
    static Expr binary(Kind kind, Expr lhs, Expr rhs);
    static Expr add(Expr lhs, Expr rhs);
    static Expr sub(Expr lhs, Expr rhs);
    static Expr mul(Expr lhs, Expr rhs);
    static Expr neg(Expr operand);

    Kind kind() const { return kind_; }
    std::int64_t number() const { return number_; }
    /** The referenced name (Symbol kind). */
    const std::string &symbol() const { return symbol_.str(); }
    /** The referenced symbol (Symbol kind). */
    Symbol symbolId() const { return symbol_; }
    const Expr &lhs() const { return *lhs_; }
    const Expr &rhs() const { return *rhs_; }
    const Expr &operand() const { return *lhs_; }

    /** True if this expression is a literal number. */
    bool isNumber() const { return kind_ == Kind::Number; }

    /**
     * Value of a symbol-free expression, or nullopt if it references any
     * symbol (or divides by zero). Deterministic, so operand sizes based
     * on it are stable across assembler passes.
     */
    std::optional<std::int64_t> constantFold() const;
    /** True if this expression is a bare symbol reference. */
    bool isSymbol() const { return kind_ == Kind::Symbol; }

    /** Render in assembler syntax. */
    std::string text() const;

  private:
    Kind kind_;
    Symbol symbol_;
    std::int64_t number_ = 0;
    std::shared_ptr<const Expr> lhs_;
    std::shared_ptr<const Expr> rhs_;
};

/** Addressing-mode form of a symbolic operand. */
enum class OperKind : std::uint8_t {
    Register,    ///< Rn
    Indexed,     ///< expr(Rn)
    SymbolicMem, ///< expr — memory at expr, PC-relative encoding
    Absolute,    ///< &expr
    Indirect,    ///< @Rn
    IndirectInc, ///< @Rn+
    Immediate,   ///< #expr
};

/** One symbolic operand. */
struct AsmOperand {
    OperKind kind = OperKind::Register;
    isa::Reg reg = isa::Reg::PC;
    Expr expr;

    static AsmOperand reg_(isa::Reg r) { return {OperKind::Register, r, {}}; }
    static AsmOperand imm(Expr e)
    {
        return {OperKind::Immediate, isa::Reg::PC, std::move(e)};
    }
    static AsmOperand abs(Expr e)
    {
        return {OperKind::Absolute, isa::Reg::SR, std::move(e)};
    }
    static AsmOperand indexed(isa::Reg r, Expr e)
    {
        return {OperKind::Indexed, r, std::move(e)};
    }
    static AsmOperand mem(Expr e)
    {
        return {OperKind::SymbolicMem, isa::Reg::PC, std::move(e)};
    }
    static AsmOperand indirect(isa::Reg r, bool post_inc)
    {
        return {post_inc ? OperKind::IndirectInc : OperKind::Indirect, r, {}};
    }

    /** Render in assembler syntax. */
    std::string text() const;
};

/** One symbolic instruction (core ops only; pseudo-ops are expanded by
 *  the parser). */
struct AsmInstr {
    isa::Op op = isa::Op::Mov;
    bool byte = false;
    std::optional<AsmOperand> src; ///< format I only
    std::optional<AsmOperand> dst; ///< format I and II (not RETI)
    Expr jump_target;              ///< jumps only

    /** Render in assembler syntax. */
    std::string text() const;
};

/** Kinds of directives the assembler understands. */
enum class Directive : std::uint8_t {
    Text,    ///< .text
    Const,   ///< .const — FRAM-resident initialized data/metadata
    Data,    ///< .data
    Bss,     ///< .bss
    Word,    ///< .word expr[, expr...]
    Byte,    ///< .byte expr[, expr...]
    Space,   ///< .space N (literal)
    Align,   ///< .align N (power of two; N==2 supported)
    Ascii,   ///< .ascii "..."
    Asciz,   ///< .asciz "..."
    Global,  ///< .global name (documentation only)
    Equ,     ///< .equ name, expr
    Func,    ///< .func name — begins a function; defines label `name`
    EndFunc, ///< .endfunc — ends it; defines `__end_<name>`
};

/** One statement: a label, an instruction, or a directive. */
struct Statement {
    enum class Kind : std::uint8_t { Label, Instr, Directive };

    Kind kind = Kind::Label;
    int line = 0; ///< 1-based source line, 0 for synthesized statements

    // Label
    Symbol label;

    // Instr
    AsmInstr instr;

    // Directive
    Directive directive = Directive::Text;
    Symbol name;            ///< .func/.equ/.global name
    std::vector<Expr> args; ///< .word/.byte/.space/.align/.equ args
    std::string str;        ///< .ascii/.asciz payload

    static Statement makeLabel(Symbol name_, int line_ = 0);
    static Statement
    makeLabel(std::string_view name_, int line_ = 0)
    {
        return makeLabel(Symbol(name_), line_);
    }
    static Statement makeInstr(AsmInstr instr_, int line_ = 0);
    static Statement makeDirective(Directive d, int line_ = 0);

    /** Render in assembler syntax (no trailing newline). */
    std::string text() const;
};

/** A parsed program: a flat statement list. */
struct Program {
    std::vector<Statement> stmts;

    /** Append all statements of @p other, moving them. */
    void append(Program &&other);

    /** Render the whole program as assembler text. */
    std::string text() const;
};

/** Statement-index extent of one .func/.endfunc region. */
struct FuncRange {
    Symbol name;
    size_t func_stmt;    ///< index of the .func directive
    size_t endfunc_stmt; ///< index of the matching .endfunc
};

/** All functions in @p program, in order of appearance. */
std::vector<FuncRange> findFunctions(const Program &program);

/** Convenience builders used heavily by the passes. */
AsmInstr movInstr(AsmOperand src, AsmOperand dst, bool byte = false);
AsmInstr callImm(Expr target);
AsmInstr callAbs(Expr cell_address);
AsmInstr brImm(Expr target);   ///< MOV #target, PC
AsmInstr brAbs(Expr cell);     ///< MOV &cell, PC
AsmInstr addImmToAbs(std::int64_t value, Expr cell);
AsmInstr subImmFromAbs(std::int64_t value, Expr cell);
AsmInstr jump(isa::Op op, Expr target);

} // namespace swapram::masm

#endif // SWAPRAM_MASM_AST_HH
