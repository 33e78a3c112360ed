#include "blockcache/builder.hh"

#include <string>
#include <utility>

#include "blockcache/pass.hh"
#include "blockcache/runtime_gen.hh"
#include "ckpt/gen.hh"
#include "masm/parser.hh"
#include "support/logging.hh"

namespace swapram::bb {

BuildInfo
build(masm::Program app, const masm::LayoutSpec &layout,
      const Options &options)
{
    BuildInfo info;

    TransformResult transformed = transform(std::move(app), options);
    info.n_blocks = static_cast<int>(transformed.blocks.size());
    info.n_stubs = static_cast<int>(transformed.stub_target.size());

    // Checkpointing captures any FRAM-resident .data/.bss (crt0
    // reinitialises them every boot). Unlike swapram there is no
    // intermediate assembly to measure them from, so probe-assemble
    // the transformed application alone, with the runtime's entry
    // symbols predefined (absolute operands have a fixed size, so
    // placeholder addresses keep every section size exact).
    ckpt::SectionSizes sections;
    if (options.ckpt.enabled()) {
        masm::LayoutSpec probe_layout = layout;
        for (int k = 0; k < info.n_stubs; ++k)
            probe_layout.predefined.emplace("__bb_e" + std::to_string(k),
                                            0);
        probe_layout.predefined.emplace("__bb_ret", 0);
        probe_layout.predefined.emplace("__bb_recover", 0);
        masm::AssembleResult probe =
            masm::assemble(transformed.program, probe_layout);
        sections = ckpt::measureSections(probe.image, options.ckpt);
    }

    masm::Program final_program = std::move(transformed.program);
    masm::parseAppend(generateRuntimeAsm(transformed, options, sections),
                      final_program);

    info.assembled = masm::assemble(std::move(final_program), layout);

    const auto &miss = info.assembled.function("__bb_miss");
    const auto &ret = info.assembled.function("__bb_ret");
    const auto &stubs = info.assembled.function("__bb_stubs");

    // The runtime (miss + ret + stubs) is contiguous; attribute all of
    // it to Handler, with the copy loop carved out as Memcpy.
    info.runtime_addr = miss.addr;
    info.runtime_end =
        static_cast<std::uint16_t>(stubs.addr + stubs.size);
    info.memcpy_addr = info.assembled.symbol("__bb_copy_loop");
    info.memcpy_end = info.assembled.symbol("__bb_chain");
    const auto &recover = info.assembled.function("__bb_recover");
    info.recover_addr = recover.addr;
    info.recover_end =
        static_cast<std::uint16_t>(recover.addr + recover.size);

    info.runtime_bytes = miss.size + ret.size + recover.size;
    std::uint32_t stub_bytes = stubs.size;
    const int e = hashEntries(options);
    std::uint32_t table_bytes =
        10 + 10 + 2 // cells + save area + boot flag
        + 2 * 2 * static_cast<std::uint32_t>(info.n_blocks) // baddr+bsize
        + 2 * 2 * static_cast<std::uint32_t>(e);            // hash
    info.metadata_bytes = stub_bytes + table_bytes;
    if (options.ckpt.enabled()) {
        // __ckpt_memcpy/__ckpt_commit/__ckpt_restore are emitted last,
        // back to back; the triple forms one owner-attribution range
        // (Handler).
        ckpt::GenSpec ckspec =
            checkpointSpec(transformed, options, sections);
        ckpt::verifyLayout(info.assembled, ckspec, "__bb_meta_end");
        const auto &ckmc = info.assembled.function("__ckpt_memcpy");
        const auto &commit = info.assembled.function("__ckpt_commit");
        const auto &restore = info.assembled.function("__ckpt_restore");
        info.ckpt_addr = ckmc.addr;
        info.ckpt_end =
            static_cast<std::uint16_t>(restore.addr + restore.size);
        info.runtime_bytes += ckmc.size + commit.size + restore.size;
        // Staged registers + cursor + scheme cell + both counters +
        // two headed buffers.
        info.metadata_bytes += ckpt::kRegsBytes + 2 + 2 + 4 +
                               2 * (4 + ckspec.payloadBytes());
    }
    info.app_text_bytes = info.assembled.image.text.size -
                          info.runtime_bytes - stub_bytes;
    return info;
}

} // namespace swapram::bb
