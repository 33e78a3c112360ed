#include "blockcache/pass.hh"

#include <utility>

#include "blockcache/blocks.hh"
#include "masm/assembler.hh"
#include "support/logging.hh"

namespace swapram::bb {

using masm::AsmOperand;
using masm::Directive;
using masm::Expr;
using masm::OperKind;
using masm::Program;
using masm::Statement;
using support::fatal;

namespace {

/** A block during formation: statement indices plus the terminator. */
struct FormBlock {
    std::vector<masm::Symbol> labels; ///< original labels at block start
    std::vector<size_t> body;         ///< indices of plain statements
    Cfi term;                         ///< None kind == fallthrough
    size_t term_stmt = SIZE_MAX;
};

struct FuncBlocks {
    masm::Symbol name;
    size_t func_stmt = 0;
    size_t endfunc_stmt = 0;
    std::vector<FormBlock> blocks;
};

/** `<prefix><n>` symbols, each interned once per thread. */
class NumberedSymbols
{
  public:
    explicit NumberedSymbols(const char *prefix) : prefix_(prefix) {}

    masm::Symbol
    operator()(int n)
    {
        if (static_cast<std::size_t>(n) >= names_.size())
            names_.resize(static_cast<std::size_t>(n) + 1);
        masm::Symbol &name = names_[static_cast<std::size_t>(n)];
        if (name.empty())
            name = masm::Symbol(prefix_ + std::to_string(n));
        return name;
    }

  private:
    std::string prefix_;
    std::vector<masm::Symbol> names_;
};

thread_local NumberedSymbols t_block_label("__bbk_");
thread_local NumberedSymbols t_stub_entry("__bb_e");
thread_local NumberedSymbols t_skip_label("__bbs_");

/** Statements the terminator of @p kind becomes. */
std::size_t
terminatorLength(CfiKind kind)
{
    switch (kind) {
      case CfiKind::CondJump: return 4;
      case CfiKind::Call: return 2;
      default: return 1;
    }
}

} // namespace

TransformResult
transform(Program program, const Options &options)
{
    const std::uint16_t slot = options.slot_bytes;
    if (slot < 16)
        fatal("block cache: slot size too small");

    // ---- Pass 1: form blocks ----
    std::vector<FuncBlocks> funcs;
    for (const masm::FuncRange &fr : masm::findFunctions(program)) {
        FuncBlocks fb;
        fb.name = fr.name;
        fb.func_stmt = fr.func_stmt;
        fb.endfunc_stmt = fr.endfunc_stmt;

        FormBlock cur;
        std::uint16_t cur_size = 0;
        bool cur_used = false;
        auto close = [&](const Cfi &term, size_t term_stmt) {
            cur.term = term;
            cur.term_stmt = term_stmt;
            fb.blocks.push_back(std::move(cur));
            cur = FormBlock{};
            cur_size = 0;
            cur_used = false;
        };
        auto atom_cost = [&](size_t stmt_idx) {
            const Statement &a = program.stmts[stmt_idx];
            return transformedCost(classifyInstr(a.instr), a.instr);
        };
        // Split before @p incoming. The runtime destroys flags, so the
        // new block must not start with a flag consumer: trailing
        // producer atoms are carried over into the new block.
        auto split_before = [&](const Statement &incoming) {
            std::vector<size_t> carry;
            const Statement *boundary = &incoming;
            while (!cur.body.empty() && consumesFlags(boundary->instr)) {
                carry.insert(carry.begin(), cur.body.back());
                cur.body.pop_back();
                boundary = &program.stmts[carry.front()];
            }
            if (cur.body.empty() && consumesFlags(boundary->instr))
                fatal("block cache: cannot split flag-dependent "
                      "sequence in ", fb.name.str());
            close(Cfi{}, SIZE_MAX);
            for (size_t idx : carry) {
                cur.body.push_back(idx);
                cur_size = static_cast<std::uint16_t>(cur_size +
                                                      atom_cost(idx));
                cur_used = true;
            }
        };

        for (size_t i = fr.func_stmt + 1; i < fr.endfunc_stmt; ++i) {
            const Statement &s = program.stmts[i];
            switch (s.kind) {
              case Statement::Kind::Label:
                if (cur_used)
                    close(Cfi{}, SIZE_MAX); // fallthrough into the label
                cur.labels.push_back(s.label);
                break;
              case Statement::Kind::Instr: {
                Cfi cfi = classifyInstr(s.instr);
                std::uint16_t cost = transformedCost(cfi, s.instr);
                if (cfi.kind == CfiKind::None) {
                    if (cur_size + cost + 4 > slot) {
                        if (!cur_used)
                            fatal("block cache: slot too small for one "
                                  "instruction in ", fb.name.str());
                        split_before(s);
                    }
                    cur.body.push_back(i);
                    cur_size = static_cast<std::uint16_t>(cur_size + cost);
                    cur_used = true;
                } else {
                    if (cur_size + cost > slot) {
                        if (!cur_used)
                            fatal("block cache: slot too small for CFI in ",
                                  fb.name.str());
                        split_before(s);
                    }
                    cur_used = true;
                    close(cfi, i);
                }
                break;
              }
              case Statement::Kind::Directive:
                fatal("block cache: directive inside .func ",
                      fb.name.str(), " (line ", s.line,
                      ") is unsupported");
            }
        }
        // Verify the size invariant held through carried splits, and
        // that no block *starts* with a flag consumer: every block is
        // entered through the runtime, which destroys flags (e.g. two
        // consecutive conditional jumps off one compare are illegal).
        for (const FormBlock &blk : fb.blocks) {
            std::uint32_t total = 4; // worst-case fallthrough terminator
            for (size_t idx : blk.body)
                total += atom_cost(idx);
            if (blk.term_stmt != SIZE_MAX)
                total += atom_cost(blk.term_stmt) - 4;
            if (total > slot)
                fatal("block cache: block exceeds slot in ",
                      fb.name.str());
            size_t first = blk.body.empty() ? blk.term_stmt
                                            : blk.body.front();
            if (first != SIZE_MAX &&
                consumesFlags(program.stmts[first].instr)) {
                fatal("block cache: block in ", fb.name.str(), " (line ",
                      program.stmts[first].line,
                      ") begins with a flag-consuming instruction; "
                      "flags do not survive block boundaries");
            }
        }
        if (cur_used || !cur.labels.empty())
            fatal("block cache: function ", fb.name.str(),
                  " falls off its end without a terminator");
        if (fb.blocks.empty())
            fatal("block cache: empty function ", fb.name.str());
        funcs.push_back(std::move(fb));
    }

    // Assign global block ids and map labels (and function names) to
    // the block that starts with them. Count the statements the
    // transformed program will hold on the way.
    // Indexed by symbol id; -1: not a block's label.
    std::vector<int> label_block(masm::Symbol::bound(), -1);
    auto block_at = [&label_block](masm::Symbol s) {
        return s.id() < label_block.size() ? label_block[s.id()] : -1;
    };
    auto mark = [&label_block](masm::Symbol s, int gid) {
        if (s.id() >= label_block.size())
            label_block.resize(s.id() + 1, -1);
        label_block[s.id()] = gid;
    };
    std::size_t out_size = program.stmts.size();
    {
        int gid = 0;
        for (const FuncBlocks &fb : funcs) {
            out_size -= fb.endfunc_stmt - fb.func_stmt + 1;
            out_size += 2; // .func, .endfunc
            for (std::size_t j = 0; j < fb.blocks.size(); ++j) {
                const FormBlock &blk = fb.blocks[j];
                if (j == 0)
                    mark(fb.name, gid);
                for (masm::Symbol l : blk.labels)
                    mark(l, gid);
                out_size += 1 + blk.labels.size() + blk.body.size() +
                            terminatorLength(blk.term.kind);
                ++gid;
            }
        }
    }

    auto block_of = [&](const Expr &target, int line) {
        if (!target.isSymbol())
            fatal("block cache: non-symbol branch target at line ", line);
        const int gid = block_at(target.symbolId());
        if (gid < 0)
            fatal("block cache: branch target '", target.symbol(),
                  "' is not a block (line ", line, ")");
        return gid;
    };

    // ---- Pass 2: emit, moving each kept statement ----
    TransformResult out;
    std::vector<Statement> &emit = out.program.stmts;
    // Spare capacity the caller left (room for the runtime) carries
    // over to the transformed program.
    emit.reserve(out_size + program.stmts.capacity() - program.stmts.size());
    const masm::Symbol bb_ret("__bb_ret");
    auto stub = [&](int target_gid) {
        out.stub_target.push_back(target_gid);
        return static_cast<int>(out.stub_target.size()) - 1;
    };
    auto call_stub_stmt = [&](int target_gid, int line) {
        int k = stub(target_gid);
        return Statement::makeInstr(
            masm::callImm(Expr::sym(t_stub_entry(k))), line);
    };
    auto absolutized = [&](Statement &&s) {
        auto fix = [](std::optional<AsmOperand> &op) {
            if (op && op->kind == OperKind::SymbolicMem) {
                op->kind = OperKind::Absolute;
                op->reg = isa::Reg::SR;
            }
        };
        fix(s.instr.src);
        fix(s.instr.dst);
        return std::move(s);
    };

    int skip_counter = 0;
    size_t next_func = 0;
    size_t i = 0;
    int gid_base = 0;
    while (i < program.stmts.size()) {
        Statement &s = program.stmts[i];
        if (next_func < funcs.size() && i == funcs[next_func].func_stmt) {
            const FuncBlocks &fb = funcs[next_func];
            emit.push_back(std::move(s)); // the .func directive
            const int nblocks = static_cast<int>(fb.blocks.size());
            for (int j = 0; j < nblocks; ++j) {
                const FormBlock &blk = fb.blocks[j];
                int gid = gid_base + j;
                const masm::Symbol blabel = t_block_label(gid);
                emit.push_back(Statement::makeLabel(blabel));
                for (masm::Symbol l : blk.labels)
                    emit.push_back(Statement::makeLabel(l));
                for (size_t bi : blk.body)
                    emit.push_back(
                        absolutized(std::move(program.stmts[bi])));

                const int line =
                    blk.term_stmt == SIZE_MAX
                        ? 0
                        : program.stmts[blk.term_stmt].line;
                auto require_next = [&]() {
                    if (j + 1 >= nblocks)
                        fatal("block cache: no successor block in ",
                              fb.name.str());
                    return gid + 1;
                };
                switch (blk.term.kind) {
                  case CfiKind::None: // fallthrough
                    emit.push_back(call_stub_stmt(require_next(), line));
                    break;
                  case CfiKind::Jump:
                    emit.push_back(call_stub_stmt(
                        block_of(*blk.term.target, line), line));
                    break;
                  case CfiKind::CondJump: {
                    ++out.cond_sites;
                    int taken = block_of(*blk.term.target, line);
                    int fall = require_next();
                    if (auto inv = invertCond(blk.term.op)) {
                        const masm::Symbol skip =
                            t_skip_label(skip_counter++);
                        emit.push_back(Statement::makeInstr(
                            masm::jump(*inv, Expr::sym(skip)), line));
                        emit.push_back(call_stub_stmt(taken, line));
                        emit.push_back(Statement::makeLabel(skip));
                        emit.push_back(call_stub_stmt(fall, line));
                    } else { // JN
                        const masm::Symbol take =
                            t_skip_label(skip_counter++);
                        emit.push_back(Statement::makeInstr(
                            masm::jump(isa::Op::Jn, Expr::sym(take)),
                            line));
                        emit.push_back(call_stub_stmt(fall, line));
                        emit.push_back(Statement::makeLabel(take));
                        emit.push_back(call_stub_stmt(taken, line));
                    }
                    break;
                  }
                  case CfiKind::Call: {
                    // A call whose target is not a transformed block
                    // (e.g. the startup stub calling the runtime's own
                    // __bb_recover) stays a plain CALL: the callee
                    // returns with a hardware RET to the next word,
                    // which is this block's fallthrough re-entry into
                    // the runtime. Cost parity with the internal form
                    // holds (CALL 4 + stub CALL 4 = PUSH 4 + CALL 4).
                    if (blk.term.target->isSymbol() &&
                        block_at(blk.term.target->symbolId()) < 0) {
                        emit.push_back(absolutized(
                            std::move(program.stmts[blk.term_stmt])));
                        emit.push_back(call_stub_stmt(require_next(), line));
                        break;
                    }
                    ++out.call_sites;
                    int vret_gid = require_next();
                    masm::AsmInstr push;
                    push.op = isa::Op::Push;
                    push.dst = AsmOperand::imm(
                        Expr::sym(t_block_label(vret_gid)));
                    emit.push_back(Statement::makeInstr(std::move(push), line));
                    emit.push_back(call_stub_stmt(
                        block_of(*blk.term.target, line), line));
                    break;
                  }
                  case CfiKind::Ret:
                    ++out.ret_sites;
                    emit.push_back(Statement::makeInstr(
                        masm::brImm(Expr::sym(bb_ret)), line));
                    break;
                  case CfiKind::Unsupported:
                    fatal("block cache: unsupported CFI in ", fb.name.str());
                }

                BlockInfo info;
                info.label = blabel.str();
                info.size_expr =
                    j + 1 < nblocks
                        ? t_block_label(gid + 1).str() + " - " + info.label
                        : "__end_" + fb.name.str() + " - " + info.label;
                out.blocks.push_back(std::move(info));
            }
            gid_base += nblocks;
            emit.push_back(
                std::move(program.stmts[fb.endfunc_stmt])); // .endfunc
            i = fb.endfunc_stmt + 1;
            ++next_func;
            continue;
        }
        emit.push_back(std::move(s));
        ++i;
    }

    return out;
}

} // namespace swapram::bb
