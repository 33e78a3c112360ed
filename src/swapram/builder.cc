#include "swapram/builder.hh"

#include <utility>

#include "ckpt/gen.hh"
#include "masm/parser.hh"
#include "support/logging.hh"
#include "swapram/runtime_gen.hh"

namespace swapram::cache {

BuildInfo
build(masm::Program app, const masm::LayoutSpec &layout,
      const Options &options)
{
    BuildInfo info;
    info.funcs = collectFunctions(app, options);

    // 1. Call-site instrumentation (Figure 3), in place.
    masm::Program instrumented = instrumentCalls(
        std::move(app), info.funcs, options, &info.pass_stats);

    // 2. Intermediate assembly: performs jump relaxation and fixes
    //    function sizes/addresses (the paper's "intermediate binary").
    //    The runtime's symbols do not exist yet; placeholder values are
    //    fine because absolute operands have a fixed size regardless of
    //    the resolved address.
    masm::LayoutSpec inter_layout = layout;
    for (const char *sym : {"__swp_active", "__swp_curid",
                            "__swp_redirect", "__swp_rval",
                            "__swp_miss", "__swp_dyncall",
                            "__swp_recover", "__swp_din",
                            "__swp_dout"}) {
        inter_layout.predefined.emplace(sym, 0);
    }
    for (const std::string &name : info.funcs.names)
        inter_layout.predefined.emplace("__swp_id_" + name, 0);
    masm::AssembleResult inter =
        masm::assemble(std::move(instrumented), inter_layout);

    // 3. Relocate intra-function absolute branches (Figure 4). This
    //    takes inter.relaxed; from here on only inter's image, symbols
    //    and functions are read.
    RelocResult relocs = relocateBranches(inter, info.funcs);
    info.reloc_count = static_cast<int>(relocs.entries.size());

    // Checkpointing captures any FRAM-resident .data/.bss (crt0
    // reinitialises them every boot); measure them from the
    // intermediate image — appending the runtime never changes the
    // application sections' sizes.
    ckpt::SectionSizes sections;
    if (options.ckpt.enabled())
        sections = ckpt::measureSections(inter.image, options.ckpt);

    // 4. Generate the runtime + metadata tables and parse them onto
    //    the end of the relocated program.
    masm::Program final_program = std::move(relocs.program);
    masm::parseAppend(
        generateRuntimeAsm(info.funcs, relocs, options, sections),
        final_program);

    // 5. Final assembly.
    info.assembled = masm::assemble(std::move(final_program), layout);

    // The relocation pass recorded NVM addresses from the intermediate
    // assembly; verify the final layout kept them (it must: the rewrite
    // is size-preserving and the runtime is appended after all
    // application text).
    for (int id = 0; id < info.funcs.count(); ++id) {
        const auto &name = info.funcs.names[id];
        if (info.assembled.function(name).addr !=
            inter.function(name).addr) {
            support::panic("SwapRAM build moved function '", name,
                           "' between intermediate and final assembly");
        }
    }

    // Size accounting.
    const auto &handler = info.assembled.function("__swp_miss");
    const auto &dyncall = info.assembled.function("__swp_dyncall");
    const auto &copier = info.assembled.function("__swp_memcpy");
    info.handler_addr = handler.addr;
    // The dynamic-call trampoline sits right after the handler and is
    // runtime code too (attributed to Handler in Figure 8).
    info.handler_end =
        static_cast<std::uint16_t>(dyncall.addr + dyncall.size);
    info.handler_bytes = handler.size;
    info.memcpy_addr = copier.addr;
    info.memcpy_end =
        static_cast<std::uint16_t>(copier.addr + copier.size);
    const auto &recover = info.assembled.function("__swp_recover");
    info.recover_addr = recover.addr;
    info.recover_end =
        static_cast<std::uint16_t>(recover.addr + recover.size);
    info.runtime_text_bytes = handler.size + copier.size + recover.size;
    if (options.data_pool_bytes) {
        // __swp_din/__swp_dout are emitted back to back after the
        // recovery routine; the pair forms one owner-attribution range.
        const auto &din = info.assembled.function("__swp_din");
        const auto &dout = info.assembled.function("__swp_dout");
        info.datapool_addr = din.addr;
        info.datapool_end =
            static_cast<std::uint16_t>(dout.addr + dout.size);
        info.runtime_text_bytes += din.size + dout.size;
    }
    if (options.ckpt.enabled()) {
        // __ckpt_commit/__ckpt_restore are emitted last, back to back;
        // the pair forms one owner-attribution range (Handler).
        ckpt::GenSpec ckspec =
            checkpointSpec(info.funcs, relocs, options, sections);
        ckpt::verifyLayout(info.assembled, ckspec, "__swp_meta_end");
        const auto &commit = info.assembled.function("__ckpt_commit");
        const auto &restore = info.assembled.function("__ckpt_restore");
        info.ckpt_addr = commit.addr;
        info.ckpt_end =
            static_cast<std::uint16_t>(restore.addr + restore.size);
        info.runtime_text_bytes += commit.size + restore.size;
    }
    info.app_text_bytes =
        info.assembled.image.text.size - info.runtime_text_bytes;
    // Metadata: the fixed cells and save area plus every table entry.
    const int n = std::max(info.funcs.count(), 1);
    const int r = std::max(info.reloc_count, 1);
    info.metadata_bytes = 10 + 10 + 2 // cells, save area, boot flag
                          + 7 * 2 * static_cast<std::uint32_t>(n)
                          + 2 * 2 * static_cast<std::uint32_t>(r);
    if (options.evict)
        info.metadata_bytes += 6; // retry budget + two counters
    if (options.data_pool_bytes)
        info.metadata_bytes += 8 + 64; // bitmap, counters, home/len
    if (options.ckpt.enabled()) {
        const ckpt::GenSpec ckspec =
            checkpointSpec(info.funcs, relocs, options, sections);
        // Staged registers + cursor + scheme cell + both counters +
        // two headed buffers.
        info.metadata_bytes += ckpt::kRegsBytes + 2 + 2 + 4 +
                               2 * (4 + ckspec.payloadBytes());
    }
    return info;
}

} // namespace swapram::cache
