#include "harness/paper.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>

#include "harness/report.hh"
#include "support/strings.hh"
#include "workloads/workload.hh"

namespace swapram::harness {

namespace {

namespace json = support::json;
using json::Value;
using Row = std::vector<std::string>;

/** What sets the cell @p spec apart: workload, system, placement and
 *  clock, plus each option the tables vary that differs from
 *  sweepSpec's (cache size, policy, blacklist, freezing). */
json::Object
keyOf(const RunSpec &spec)
{
    json::Object key{{"workload", spec.workload->name},
                     {"system", systemName(spec.system)},
                     {"placement", placementName(spec.placement)},
                     {"clock_hz", spec.clock_hz}};
    const cache::Options &swap = spec.swap;
    if (swap.cache_end != cache::Options().cache_end)
        key.emplace("cache_bytes", swap.cache_end - swap.cache_base);
    if (swap.policy == cache::Policy::Stack)
        key.emplace("policy", "stack");
    if (!swap.blacklist.empty()) {
        key.emplace("blacklist", json::Array(swap.blacklist.begin(),
                                             swap.blacklist.end()));
    }
    if (swap.freeze_threshold) {
        key.emplace("freeze_threshold", swap.freeze_threshold);
        key.emplace("freeze_window", swap.freeze_window);
    }
    return key;
}

Value
cellJson(const RunSpec &spec, const RunOutcome &outcome)
{
    json::Object cell{{"key", keyOf(spec)}};
    if (outcome.error) {
        cell.emplace("error", outcome.error_text);
        return cell;
    }
    const Metrics &m = outcome.metrics;
    const sim::SimStats &s = m.stats;
    // The static sizes are kept for a DNF too.
    cell.insert({{"fits", m.fits}, {"text_bytes", m.text_bytes},
                 {"const_bytes", m.const_bytes}, {"data_bytes", m.data_bytes},
                 {"ram_bytes", m.ram_bytes},
                 {"app_text_bytes", m.app_text_bytes},
                 {"runtime_bytes", m.runtime_bytes},
                 {"metadata_bytes", m.metadata_bytes},
                 {"handler_bytes", m.handler_bytes}});
    if (!m.fits) {
        cell.emplace("fit_note", m.fit_note);
        return cell;
    }
    json::Object owners;
    for (int o = 0; o < sim::kNumOwners; ++o) {
        owners.emplace(sim::ownerName(static_cast<sim::CodeOwner>(o)),
                       s.instr_by_owner[o]);
    }
    cell.insert({{"done", m.done}, {"checksum", m.checksum},
                 {"golden_ok", m.done && m.checksum == spec.workload->expected},
                 {"instructions", s.instructions},
                 {"instr_by_owner", std::move(owners)},
                 {"base_cycles", s.base_cycles}, {"stall_cycles", s.stall_cycles},
                 {"total_cycles", s.totalCycles()},
                 {"fram_accesses", s.framAccesses()},
                 {"code_space_accesses", s.code_space_accesses},
                 {"data_space_accesses", s.data_space_accesses},
                 {"energy_pj", m.energy_pj}});
    return cell;
}

/** Counter @p name of @p cell; 0 when the cell has none. */
double
count(const Value &cell, const std::string &name)
{
    const Value &v = cell[name];
    return v.isNumber() ? v.asDouble() : 0;
}

bool
flag(const Value &cell, const std::string &name)
{
    const Value &v = cell[name];
    return v.kind() == Value::Kind::Bool && v.asBool();
}

/** NVM bytes of a built image: code, runtime, metadata, constants. */
double
nvm(const Value &cell)
{
    return count(cell, "app_text_bytes") + count(cell, "runtime_bytes") +
           count(cell, "metadata_bytes") + count(cell, "const_bytes");
}

/** The cells one row reads, in the order its Line lists their runs. */
using Runs = std::vector<const Value *>;
/** A column's number in one row; none (printed "DNF") when a cell it
 *  reads did not fit. */
using Measure = std::function<std::optional<double>(const Runs &)>;
using Format = std::function<std::string(double)>;

/** @p fn of run @p i. */
Measure
of(std::size_t i, std::function<double(const Value &)> fn)
{
    return [=](const Runs &r) -> std::optional<double> {
        if (!flag(*r[i], "fits"))
            return {};
        return fn(*r[i]);
    };
}

Measure
counter(std::size_t i, const std::string &name)
{
    return of(i, [name](const Value &m) { return count(m, name); });
}

/** Counter @p name of run @p i over the same counter of run @p j. */
Measure
ratio(std::size_t i, std::size_t j, const std::string &name)
{
    return [=](const Runs &r) -> std::optional<double> {
        if (!flag(*r[i], "fits") || !flag(*r[j], "fits"))
            return {};
        return count(*r[i], name) / count(*r[j], name);
    };
}

const Format kPlain = [](double n) {
    return std::to_string(static_cast<std::uint64_t>(n));
};
const Format kCommas = [](double n) {
    return withCommas(static_cast<std::uint64_t>(n));
};
const Format kTimes = [](double n) { return support::fixed(n, 2) + "x"; };
const Format kDelta = [](double n) { return percentDelta(n, 1.0); };

Format
decimals(int places)
{
    return [places](double n) { return support::fixed(n, places); };
}

struct Column {
    std::string header;
    Measure measure;
    Format format;
    /** The summary row's cell: empty, or the column's geometric or
     *  arithmetic mean, formatted. */
    enum Summary { None, GeoMean, Mean } summary = None;
};

/** One row: its leading cells and the runs its columns read. */
struct Line {
    Row lead;
    std::vector<RunSpec> runs;
};

struct Spec {
    std::string id, title;
    Row lead; ///< headers of the leading cells
    std::vector<Column> columns;
    std::vector<Line> lines;
    std::string summary = {}; ///< the summary row's label; empty: none
    /** Values derived over all rows, beside the columns (Figure 7). */
    std::function<json::Object(const std::vector<Runs> &)> derived = {};
};

/** The distinct cells the tables read, in the order first asked for. */
struct Plan {
    std::vector<RunSpec> specs;
    std::map<std::string, std::size_t> index; ///< key text -> spec

    std::size_t
    need(const RunSpec &spec)
    {
        auto [it, added] =
            index.emplace(Value(keyOf(spec)).dump(), specs.size());
        if (added)
            specs.push_back(spec);
        return it->second;
    }
};

/** Table @p spec computed from the @p cells that @p plan indexes
 *  (every run of @p spec is planned already: need() only looks up). */
Value
compute(const Spec &spec, Plan &plan, const std::vector<Value> &cells)
{
    std::vector<Row> rows;
    std::vector<Runs> all;
    std::vector<std::vector<double>> numbers(spec.columns.size());
    for (const Line &line : spec.lines) {
        Runs &runs = all.emplace_back();
        for (const RunSpec &run : line.runs)
            runs.push_back(&cells.at(plan.need(run)));
        Row &row = rows.emplace_back(line.lead);
        for (std::size_t k = 0; k < spec.columns.size(); ++k) {
            const Column &col = spec.columns[k];
            const std::optional<double> v = col.measure(runs);
            row.push_back(v ? col.format(*v) : "DNF");
            if (v)
                numbers[k].push_back(*v);
        }
    }
    Row header = spec.lead;
    for (const Column &col : spec.columns)
        header.push_back(col.header);
    if (!spec.summary.empty()) {
        Row &row = rows.emplace_back(spec.lead.size(), "");
        row[0] = spec.summary;
        for (std::size_t k = 0; k < spec.columns.size(); ++k) {
            const Column &col = spec.columns[k];
            const std::vector<double> &n = numbers[k];
            row.push_back(
                col.summary == Column::GeoMean ? col.format(geoMean(n))
                : col.summary == Column::Mean
                    ? col.format(std::accumulate(n.begin(), n.end(), 0.0) /
                                 n.size())
                    : "");
        }
    }
    json::Array body;
    for (const Row &r : rows)
        body.push_back(json::Array(r.begin(), r.end()));
    json::Object table{{"id", spec.id},
                       {"title", spec.title},
                       {"columns", json::Array(header.begin(), header.end())},
                       {"rows", std::move(body)}};
    if (spec.derived)
        table.emplace("derived", spec.derived(all));
    return table;
}

constexpr std::uint32_t kMHz24 = 24'000'000;
constexpr std::uint32_t kMHz8 = 8'000'000;

const workloads::Workload &
named(const char *name)
{
    return *workloads::find(name);
}

std::string
mhz(std::uint32_t clock_hz)
{
    return std::to_string(clock_hz / 1'000'000);
}

/** One row per workload @p names (default: the nine): its baseline
 *  (run 0), SwapRAM (run 1) and block-cache (run 2) cells. */
std::vector<Line>
systems(std::uint32_t clock_hz = kMHz24,
        std::vector<const char *> names = {},
        Placement base = Placement::Unified,
        Placement cached = Placement::Unified)
{
    if (names.empty()) {
        for (const workloads::Workload &w : workloads::all())
            names.push_back(w.name.c_str());
    }
    std::vector<Line> lines;
    for (const char *name : names) {
        const workloads::Workload &w = named(name);
        lines.push_back({{w.display},
                         {sweepSpec(w, System::Baseline, base, clock_hz),
                          sweepSpec(w, System::SwapRam, cached, clock_hz),
                          sweepSpec(w, System::BlockCache, cached,
                                    clock_hz)}});
    }
    return lines;
}

/** SwapRAM on @p w with a @p bytes code cache at the SRAM base. */
RunSpec
sized(const workloads::Workload &w, int bytes)
{
    RunSpec spec = sweepSpec(w, System::SwapRam);
    spec.swap.cache_end =
        static_cast<std::uint16_t>(spec.swap.cache_base + bytes);
    return spec;
}

Spec
table1()
{
    auto binary = [](const Value &m) {
        return count(m, "text_bytes") + count(m, "const_bytes") +
               count(m, "data_bytes");
    };
    auto code_data = [](const Value &m) {
        return count(m, "code_space_accesses") /
               count(m, "data_space_accesses");
    };
    return {"table1",
            "Table 1: benchmark footprint and access mix (baseline, "
            "unified memory)",
            {"Benchmark"},
            {{"Binary Size (B)", of(0, binary), kPlain},
             {"RAM Usage (B)", counter(0, "ram_bytes"), kPlain},
             {"Code/Data Access Ratio", of(0, code_data), decimals(3),
              Column::Mean}},
            systems(),
            "Average"};
}

Spec
figure1(std::uint32_t clock_hz)
{
    static const workloads::Workload arith = workloads::makeArith();
    auto line = [&](const char *label, Placement placement) {
        return Line{{label},
                    {sweepSpec(arith, System::Baseline, placement, clock_hz),
                     sweepSpec(arith, System::Baseline, Placement::Unified,
                               clock_hz)}};
    };
    auto ms = [clock_hz](const Value &m) {
        return count(m, "total_cycles") / clock_hz * 1e3;
    };
    auto uj = [](const Value &m) { return count(m, "energy_pj") / 1e6; };
    return {"fig1_" + mhz(clock_hz) + "mhz",
            "Figure 1 at " + mhz(clock_hz) +
                " MHz: code/data placement vs runtime and energy "
                "(arithmetic kernel)",
            {"Placement"},
            {{"Cycles", counter(0, "total_cycles"), kCommas},
             {"Runtime (ms)", of(0, ms), decimals(3)},
             {"Energy (uJ)", of(0, uj), decimals(1)},
             {"vs unified", ratio(1, 0, "total_cycles"), kTimes}},
            {line("code FRAM / data FRAM (unified)", Placement::Unified),
             line("code FRAM / data SRAM (standard)", Placement::Standard),
             line("code SRAM / data FRAM", Placement::SramCode),
             line("code SRAM / data SRAM", Placement::SramAll)}};
}

/** Table 2's half on @p name (FRAM accesses or unstalled cycles). */
Spec
table2(const std::string &name, const std::string &what)
{
    return {"table2_" + name,
            "Table 2: " + what + " (unified memory, simulator counters)",
            {"Benchmark"},
            {{"Baseline", counter(0, name), kCommas},
             {"Block-based", counter(2, name), kCommas},
             {"", ratio(2, 0, name), kDelta, Column::GeoMean},
             {"SwapRAM", counter(1, name), kCommas},
             {"", ratio(1, 0, name), kDelta, Column::GeoMean}},
            systems(),
            "Geo. mean"};
}

Spec
figure7()
{
    // Workloads are scaled down, so fit is also judged against a
    // proportionally scaled budget besides the real 32 KiB.
    auto fits8k = [](double n) { return n > 8 * 1024 ? "DNF" : "yes"; };
    auto growth = [](const Runs &r) -> std::optional<double> {
        return nvm(*r[1]) / nvm(*r[0]);
    };
    auto derived = [](const std::vector<Runs> &all) {
        std::vector<double> bb, sr, handler;
        for (const Runs &r : all) {
            bb.push_back(nvm(*r[2]) / nvm(*r[0]));
            sr.push_back(nvm(*r[1]) / nvm(*r[0]));
            handler.push_back(count(*r[1], "handler_bytes"));
        }
        const auto [lo, hi] = std::minmax_element(handler.begin(),
                                                  handler.end());
        return json::Object{
            {"Block-based NVM growth (geo mean)", geoMeanDelta(bb)},
            {"SwapRAM NVM growth (geo mean)", geoMeanDelta(sr)},
            {"SwapRAM miss handler size (B)",
             *lo == *hi ? kPlain(*lo) : kPlain(*lo) + "-" + kPlain(*hi)}};
    };
    return {"fig7",
            "Figure 7: NVM usage after transformation (application + "
            "runtime + metadata)",
            {"Benchmark"},
            {{"Base app", of(0, nvm), kPlain},
             {"BB app", counter(2, "app_text_bytes"), kPlain},
             {"BB runtime", counter(2, "runtime_bytes"), kPlain},
             {"BB metadata", counter(2, "metadata_bytes"), kPlain},
             {"BB total", of(2, nvm), kPlain},
             {"BB fits(8K)", of(2, nvm), fits8k},
             {"SR app", counter(1, "app_text_bytes"), kPlain},
             {"SR runtime", counter(1, "runtime_bytes"), kPlain},
             {"SR metadata", counter(1, "metadata_bytes"), kPlain},
             {"SR total", of(1, nvm), kPlain},
             {"SR vs base", growth, kDelta}},
            systems(),
            "",
            derived};
}

Spec
figure8(System system)
{
    const bool swap = system == System::SwapRam;
    // Instructions of one owner ("" for all of them) in the cache run,
    // as a % of the baseline run's instructions.
    auto share = [i = swap ? 1u : 2u](std::string owner) -> Measure {
        return [=](const Runs &r) -> std::optional<double> {
            if (!flag(*r[i], "fits"))
                return {};
            const double part =
                owner.empty() ? count(*r[i], "instructions")
                              : count((*r[i])["instr_by_owner"], owner);
            return 100.0 * part / count(*r[0], "instructions");
        };
    };
    return {swap ? "fig8_swapram" : "fig8_block",
            std::string("Figure 8, ") + (swap ? "SwapRAM" : "block cache") +
                ": dynamic instruction breakdown, % of the baseline "
                "instruction count",
            {"Benchmark"},
            {{"app-FRAM %", share("app-fram"), decimals(1)},
             {"app-SRAM %", share("app-sram"), decimals(1)},
             {"handler %", share("handler"), decimals(1)},
             {"memcpy %", share("memcpy"), decimals(1)},
             {"total %", share(""), decimals(1)}},
            systems()};
}

Spec
figure9(std::uint32_t clock_hz)
{
    return {"fig9_" + mhz(clock_hz) + "mhz",
            "Figure 9 at " + mhz(clock_hz) +
                " MHz: normalized to unified baseline",
            {"Benchmark"},
            {{"SR speedup", ratio(0, 1, "total_cycles"), kTimes,
              Column::GeoMean},
             {"SR energy", ratio(1, 0, "energy_pj"), kDelta, Column::GeoMean},
             {"BB speedup", ratio(0, 2, "total_cycles"), kTimes,
              Column::GeoMean},
             {"BB energy", ratio(2, 0, "energy_pj"), kDelta,
              Column::GeoMean}},
            systems(clock_hz),
            "Geo. mean"};
}

Spec
figure10(std::uint32_t clock_hz)
{
    return {"fig10_" + mhz(clock_hz) + "mhz",
            "Figure 10 at " + mhz(clock_hz) +
                " MHz: split SRAM vs the standard configuration",
            {"Benchmark"},
            {{"standard cyc", counter(0, "total_cycles"), kCommas},
             {"SR split cyc", counter(1, "total_cycles"), kCommas},
             {"SR speedup", ratio(0, 1, "total_cycles"), kTimes,
              Column::GeoMean},
             {"SR energy", ratio(1, 0, "energy_pj"), kDelta,
              Column::GeoMean},
             {"BB split cyc", counter(2, "total_cycles"), kCommas},
             {"BB speedup", ratio(0, 2, "total_cycles"), kTimes}},
            systems(clock_hz, {"crc", "aes", "bitcount", "rsa"},
                    Placement::Standard, Placement::Split),
            "Geo. mean"};
}

Spec
ablationPolicy()
{
    std::vector<Line> lines;
    for (const char *name : {"aes", "fft", "dijkstra"}) {
        for (int bytes : {384, 512, 768, 1024}) {
            RunSpec stack = sized(named(name), bytes);
            stack.swap.policy = cache::Policy::Stack;
            lines.push_back({{named(name).display, std::to_string(bytes)},
                             {sized(named(name), bytes), stack}});
        }
    }
    return {"ablation_policy",
            "Ablation 1: circular queue vs stack replacement (24 MHz, "
            "unified)",
            {"Benchmark", "Cache (B)"},
            {{"queue cyc", counter(0, "total_cycles"), kCommas},
             {"stack cyc", counter(1, "total_cycles"), kCommas},
             {"queue vs stack", ratio(1, 0, "total_cycles"), kTimes}},
            lines};
}

Spec
ablationCacheSize()
{
    const workloads::Workload &fft = named("fft");
    std::vector<Line> lines;
    for (int bytes : {256, 384, 512, 768, 1024, 2048, 3072, 4096}) {
        lines.push_back({{std::to_string(bytes)},
                         {sized(fft, bytes),
                          sweepSpec(fft, System::Baseline)}});
    }
    return {"ablation_cache_size",
            "Ablation 2: SwapRAM speedup vs cache size (FFT, 24 MHz)",
            {"Cache (B)"},
            {{"total cycles", counter(0, "total_cycles"), kCommas},
             {"speedup", ratio(1, 0, "total_cycles"), kTimes},
             {"FRAM accesses", counter(0, "fram_accesses"), kCommas}},
            lines};
}

Spec
ablationBlacklist()
{
    const RunSpec cacheable = sweepSpec(named("rsa"), System::SwapRam);
    RunSpec listed = cacheable;
    listed.swap.blacklist = {"rsa_modmul"};
    return {"ablation_blacklist",
            "Ablation 3: blacklisting the hot multiply helper (RSA, "
            "24 MHz)",
            {"Config"},
            {{"total cycles", counter(0, "total_cycles"), kCommas},
             {"FRAM accesses", counter(0, "fram_accesses"), kCommas}},
            {{{"all functions cacheable"}, {cacheable}},
             {{"rsa_modmul blacklisted"}, {listed}}}};
}

Spec
ablationFreeze()
{
    const RunSpec paper = sized(named("aes"), 512);
    RunSpec frozen = paper;
    frozen.swap.freeze_threshold = 4;
    frozen.swap.freeze_window = 48;
    auto handler = [](const Value &m) {
        return count(m["instr_by_owner"], "handler");
    };
    auto golden = [](const Value &m) { return flag(m, "golden_ok") ? 1.0 : 0; };
    return {"ablation_freeze",
            "Ablation 4: freeze-on-thrash extension (AES in a 512 B "
            "cache, 24 MHz)",
            {"Config"},
            {{"total cycles", counter(0, "total_cycles"), kCommas},
             {"handler instr", of(0, handler), kCommas},
             {"checksum ok", of(0, golden),
              [](double ok) { return ok ? "yes" : "NO"; }}},
            {{{"paper baseline"}, {paper}},
             {{"freeze after 4 aborts"}, {frozen}}}};
}

/** Every table of the document, in document order. */
std::vector<Spec>
tableSpecs()
{
    return {
        table1(),
        figure1(kMHz24),
        figure1(kMHz8),
        table2("fram_accesses", "FRAM accesses"),
        table2("base_cycles", "unstalled CPU cycles"),
        figure7(),
        figure8(System::SwapRam),
        figure8(System::BlockCache),
        figure9(kMHz24),
        figure9(kMHz8),
        figure10(kMHz24),
        figure10(kMHz8),
        ablationPolicy(),
        ablationCacheSize(),
        ablationBlacklist(),
        ablationFreeze(),
    };
}

/** The distinct cells @p specs read. */
Plan
planOf(const std::vector<Spec> &specs)
{
    Plan plan;
    for (const Spec &spec : specs) {
        for (const Line &line : spec.lines) {
            for (const RunSpec &run : line.runs)
                plan.need(run);
        }
    }
    return plan;
}

} // namespace

std::vector<RunSpec>
paperSpecs()
{
    return planOf(tableSpecs()).specs;
}

Value
paperDocument(const Engine &engine, const ProgressFn &progress)
{
    const std::vector<Spec> specs = tableSpecs();
    Plan plan = planOf(specs);
    std::vector<RunOutcome> outcomes = engine.runAll(plan.specs, progress);
    std::vector<Value> cells;
    json::Array failures;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Value &cell =
            cells.emplace_back(cellJson(plan.specs[i], outcomes[i]));
        if (cell["error"].isString() ||
            (flag(cell, "fits") && !flag(cell, "golden_ok")))
            failures.push_back(cell["key"]);
    }
    json::Array tables;
    for (const Spec &spec : specs)
        tables.push_back(compute(spec, plan, cells));
    return json::Object{{"schema", "swapram-paper/v1"},
                        {"cells", std::move(cells)},
                        {"failures", std::move(failures)},
                        {"tables", std::move(tables)}};
}

std::string
paperText(const Value &doc)
{
    auto strings = [](const Value &array) {
        std::vector<std::string> out;
        for (const Value &v : array.asArray())
            out.push_back(v.asString());
        return out;
    };
    std::string out;
    for (const Value &t : doc["tables"].asArray()) {
        Table table(strings(t["columns"]));
        for (const Value &row : t["rows"].asArray())
            table.addRow(strings(row));
        out += t["title"].asString() + "\n\n" + table.text();
        if (t["derived"].isObject()) {
            for (const auto &[name, value] : t["derived"].asObject())
                out += name + ": " + value.asString() + "\n";
        }
        out += "\n";
    }
    return out;
}

} // namespace swapram::harness
