/**
 * @file
 * The reproduction scoreboard: the paper's Tables 2-8, Figs. 4, 5
 * and 14-17 and the Promatch ablations, as rows of one table.
 *
 * A row is one measured cell: artifact, line and column label, the
 * spec and sampling options of the run it reads, metric, and paper
 * value. Rows with equal spec and options share one estimateLer run;
 * histogram metrics expand into one line per bin; model metrics
 * (Tables 7, 8) draw no samples. docs/benchmarks.md has the CLI, the
 * methodology and the shape each artifact should show.
 */

#include <map>
#include <tuple>

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

namespace
{

enum Metric
{
    // Read from every decoded sample.
    kLer,        // Eq. 1 logical error rate
    kFailHighHw, // P(fail | 11 <= HW <= 64)
    kHwBefore,   // syndrome HW histogram, one line per bin
    kGt10Before, // P(HW > 10)
    // Read from decode traces.
    kHwAfter,     // residual HW histogram after predecoding
    kGt10After,   // P(residual HW > 10)
    kChainLength, // chain-length histogram, lengths 1..8
    kStep1, kStep2, kStep3, kStep4, // share whose deepest step is s
    kPredecodeMax, kPredecodeMean,  // latency (ns), capped at the
    kTotalMax, kTotalMean,          // effective budget
    // Analytic models: no samples drawn.
    kDetectors, kEdges,
    kEdgeTable, kPathTable,         // Table 8 on-chip tables
    kDenseCells, kDeferred, kRatio, // host PathTable pair storage
    kLuts, kLutPercent, kFlipFlops, kFfPercent, kFrequency, // Table 7
};

std::string
format(Metric metric, double value)
{
    switch (metric) {
    case kPredecodeMax: case kTotalMax: case kDetectors: case kEdges:
    case kLuts: case kFlipFlops: return formatFixed(value, 0);
    case kPredecodeMean: case kTotalMean: return formatFixed(value, 1);
    case kEdgeTable: case kPathTable: case kDeferred:
        return formatFixed(value, 1) + " KB";
    case kDenseCells: return formatFixed(value, 1) + " MB";
    case kRatio: return formatFixed(value, 0) + "x";
    case kLutPercent: case kFfPercent: return formatFixed(value, 2) + "%";
    case kFrequency: return formatFixed(value, 0) + " MHz";
    default: return formatSci(value);
    }
}

struct Row
{
    std::string artifact, line, column, spec;
    int d;
    double p;
    uint64_t samples; //!< Base samples per k; 0 for model rows.
    uint64_t seed;
    int skipBelowK;
    bool highHwOnly; //!< Decode only syndromes with HW > 10.
    Metric metric;
    double paper;     //!< 0: the paper states no value.
    std::string note; //!< JSON note key of the first cell, if any.
};

struct Artifact
{
    const char *name, *title, *lineHeader;
    const char *footnote = nullptr; //!< Printed under the table.
};

constexpr Artifact kArtifacts[] = {
    {"table2", "Table 2: LER at p = 1e-4 (measured vs paper)", "Decoder"},
    {"table3", "Table 3: Clique LER at p = 1e-4", "Decoder"},
    {"table4", "Table 4: predecode latency of high-HW syndromes (ns)", "d"},
    {"table5", "Table 5: full decode latency of high-HW syndromes (ns)", "d"},
    {"table6", "Table 6: deepest Promatch step needed (weighted share of "
               "high-HW syndromes)", "Step"},
    {"table7", "Table 7: Promatch pipeline utilization (analytic model)",
     "pipeline"},
    {"table8", "Table 8: storage; host PathTable dense vs DeferPairs", "d"},
    {"fig04", "Figure 4: LER and P(fail | HW>10) vs distance, p = 1e-4", "d"},
    {"fig05", "Figure 5: error-chain length frequency (high-HW, d = 13; "
              "paper: length 1 > 0.9)", "chain length"},
    {"fig14", "Figure 14: LER vs physical error rate, d = 11", "p",
     "A 0.00e+00 cell records no sampled failure: that LER is below "
     "what this\nsampling depth resolves, not zero. At the default "
     "depth the exact matcher\n(MWPM) reads 0 at every p, p = 1e-3 "
     "included, so this sweep does not\nresolve its LER."},
    {"fig15", "Figure 15: LER vs physical error rate, d = 13", "p",
     "As in fig14: a 0.00e+00 cell is unresolved, not zero."},
    {"fig16", "Figure 16: HW before/after predecoding, d = 11, p = 1e-4",
     "HW"},
    {"fig17", "Figure 17: HW before/after predecoding, d = 13, p = 1e-4",
     "HW"},
    {"ablation", "Promatch ablations at d = 13, p = 1e-4", "Variant"},
};

/** The scoreboard's rows, in print order. */
std::vector<Row>
rowTable()
{
    std::vector<Row> rows;
    Row at{}; // Artifact, p and sampling options of the next rows.
    const auto begin = [&](const char *artifact, uint64_t samples,
                           uint64_t seed, int skip, bool highHw) {
        at = {artifact, "", "", "", 0, 1e-4, samples, seed, skip,
              highHw, kLer, 0, ""};
    };
    const auto add = [&](std::string line, std::string column,
                         std::string spec, int d, Metric metric,
                         double paper = 0, std::string note = "") {
        rows.push_back({at.artifact, line, column, spec, d, at.p,
                        at.samples, at.seed, at.skipBelowK,
                        at.highHwOnly, metric, paper, note});
    };
    const auto dl = [](int d) { return "d=" + std::to_string(d); };
    const uint64_t kSeed = LerOptions{}.seed;

    const struct
    {
        const char *spec, *label;
        double paper[2]; // d = 11, 13
    } table2[] = {
        {"sparse", "MWPM (Ideal)", {1.8e-13, 3.4e-15}},
        {"promatch+astrea||astrea_g", "Promatch || AG", {1.8e-13, 3.4e-15}},
        {"promatch+astrea", "Promatch + Astrea", {4.5e-13, 2.6e-14}},
        {"astrea_g", "Astrea-G (AG)", {4.5e-13, 1.4e-13}},
        {"smith+astrea||astrea_g", "Smith || AG", {2.5e-13, 1.5e-14}},
        {"smith+astrea", "Smith + Astrea", {4.4e-11, 6.9e-11}},
        {"pinball+astrea||astrea_g", "Pinball || AG", {0, 0}},
        {"pinball+astrea", "Pinball + Astrea", {0, 0}},
    }, table3[] = {
        {"clique+astrea", "Clique + Astrea", {2.2e-5, 1e-4}},
        {"clique+astrea_g", "Clique + AG", {4.5e-13, 1.4e-13}},
        {"astrea_g", "Astrea-G (AG)", {4.5e-13, 1.4e-13}},
    };
    begin("table2", 1200, kSeed, 3, false);
    for (const auto &c : table2) {
        for (int d : {11, 13}) {
            add(c.label, dl(d) + " LER", c.spec, d, kLer,
                c.paper[d == 13]);
            add(c.label, dl(d) + " P(f|HW>10)", c.spec, d, kFailHighHw);
        }
    }
    begin("table3", 1200, kSeed, 3, false);
    for (const auto &c : table3) {
        for (int d : {11, 13}) {
            add(c.label, dl(d) + " LER", c.spec, d, kLer,
                c.paper[d == 13]);
        }
    }

    const double latency[2][4] = {{824, 68.2, 904, 524.2},
                                  {928, 70.0, 960, 526.0}};
    const double steps[2][4] = {{0.9956, 0.00439, 6.1e-11, 2.4e-11},
                                {0.9983, 0.00167, 7.3e-11, 1.8e-11}};
    for (int d : {11, 13}) {
        const double *paper = latency[d == 13];
        const std::string spec = "promatch+astrea";
        const std::string line = std::to_string(d);
        begin("table4", 400, 0x1a7e, 5, true); // k < 5: HW <= 10.
        add(line, "max", spec, d, kPredecodeMax, paper[0]);
        add(line, "avg", spec, d, kPredecodeMean, paper[1]);
        begin("table5", 400, 0x1a7e, 5, true);
        add(line, "max", spec, d, kTotalMax, paper[2]);
        add(line, "avg", spec, d, kTotalMean, paper[3]);
        begin("table6", 500, 0x6ab1e + static_cast<uint64_t>(d), 5, true);
        for (int s = 0; s < 4; ++s) {
            add("Step " + std::to_string(s + 1), dl(d), spec, d,
                Metric(kStep1 + s), steps[d == 13][s]);
        }
    }

    // Table 7's lanes come from the spec's `promatch_lanes`.
    begin("table7", 0, 0, 0, false);
    for (int d : {11, 13}) {
        for (int lanes : {1, 8}) {
            const std::string spec =
                lanes == 1 ? "promatch+astrea"
                           : "promatch+astrea?promatch_lanes=8";
            const std::string line =
                dl(d) + " lanes=" + std::to_string(lanes);
            add(line, "LUTs", spec, d, kLuts);
            add(line, "LUT %", spec, d, kLutPercent, 3);
            add(line, "FFs", spec, d, kFlipFlops);
            add(line, "FF %", spec, d, kFfPercent, 1);
            add(line, "freq", spec, d, kFrequency, 250);
        }
    }
    begin("table8", 0, 0, 0, false);
    for (int d : {11, 13, 17, 21}) {
        const std::string line = std::to_string(d);
        add(line, "detectors", "sparse", d, kDetectors);
        if (d <= 13) {
            add(line, "edges", "promatch+astrea", d, kEdges);
            add(line, "Edge table", "promatch+astrea", d, kEdgeTable,
                d == 11 ? 3.6 : 6);
            add(line, "Path table", "promatch+astrea", d, kPathTable,
                d == 11 ? 129 : 345);
        }
        add(line, "dense pair cells", "sparse", d, kDenseCells);
        add(line, "deferred", "sparse", d, kDeferred);
        add(line, "ratio", "sparse", d, kRatio);
    }

    begin("fig04", 1000, kSeed, 3, false);
    for (int d : {9, 11, 13}) {
        const std::string line = std::to_string(d);
        add(line, "MWPM", "sparse", d, kLer);
        add(line, "Astrea-G", "astrea_g", d, kLer);
        add(line, "Clique+MWPM", "clique+sparse", d, kLer);
        add(line, "UnionFind(AFS)", "union_find", d, kLer);
        add(line, "AG P(f|HW>10)", "astrea_g", d, kFailHighHw);
        add(line, "UF P(f|HW>10)", "union_find", d, kFailHighHw);
    }
    begin("fig05", 400, 0xf16'5, 6, true); // k < 6: no HW > 10.
    add("", "frequency", "sparse", 13, kChainLength, 0,
        "length1_fraction");

    const char *sweep[][2] = {
        {"sparse", "MWPM"},
        {"promatch+astrea||astrea_g", "Promatch||AG"},
        {"promatch+astrea", "Promatch+Ast"},
        {"astrea_g", "Astrea-G"},
        {"smith+astrea||astrea_g", "Smith||AG"},
        {"smith+astrea", "Smith+Ast"},
    };
    for (const auto &[artifact, d] : {std::pair{"fig14", 11}, {"fig15", 13}}) {
        begin(artifact, 700, kSeed, 3, false);
        for (double p : {1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 1e-3}) {
            at.p = p;
            for (const auto &[spec, label] : sweep) {
                add(formatSci(p), label, spec, d, kLer);
            }
        }
    }

    const char *after[][3] = {
        {"promatch+astrea", "after Promatch", "promatch"},
        {"smith+astrea", "after Smith", "smith"},
        {"pinball+astrea", "after Pinball", "pinball"},
    };
    for (const auto &[artifact, d] : {std::pair{"fig16", 11}, {"fig17", 13}}) {
        begin(artifact, 400, 0x9716, 0, false); // Every k: full HW range.
        add("", "before", after[0][0], d, kHwBefore);
        add("HW>10", "before", after[0][0], d, kGt10Before, 0,
            "p_hw_gt10_before");
        for (const auto &[spec, column, name] : after) {
            add("", column, spec, d, kHwAfter);
            add("HW>10", column, spec, d, kGt10After, 0,
                std::string("p_hw_gt10_after_") + name);
        }
    }

    const char *ablation[][2] = {
        {"promatch+astrea", "baseline (paper config)"},
        {"promatch+astrea?exact_singleton=1", "exact singleton check"},
        {"promatch+astrea?adaptive=0&fixed_target=10",
         "fixed target HW=10"},
        {"promatch+astrea?step3=0&step4=0", "steps 3+4 disabled"},
        {"astrea_g?astrea_g_bound=1", "Astrea-G + admissible bound"},
        {"astrea_g", "Astrea-G (paper model)"},
    };
    begin("ablation", 800, kSeed, 3, false);
    for (const auto &[spec, label] : ablation) {
        add(label, "LER", spec, 13, kLer);
        add(label, "P(fail | HW>10)", spec, 13, kFailHighHw);
    }
    return rows;
}

/** Everything the metrics read from one estimateLer run. */
struct Run
{
    bool done = false;
    double ler = 0.0;
    HwConditionalStats byHw;
    WeightedHistogram before, after, chains;
    double gt10Before = 0.0, gt10After = 0.0;
    WeightedStats predecodeNs, totalNs;
    double steps[5] = {};
};

using RunKey =
    std::tuple<std::string, int, double, uint64_t, uint64_t, int, bool>;

RunKey
runKey(const Row &row)
{
    return {row.spec, row.d,          row.p,         row.samples,
            row.seed, row.skipBelowK, row.highHwOnly};
}

void
execute(const Bench &bench, const Row &row, Run &run)
{
    const auto &ctx = ExperimentContext::get(row.d, row.p);
    auto decoder =
        build(DecoderSpec::parse(row.spec), ctx.graph(), ctx.paths());
    LerOptions options = bench.lerOptions(row.samples);
    options.seed = row.seed;
    options.skipBelowK = row.skipBelowK;
    if (row.highHwOnly) {
        options.decodeFilter = [](int, const std::vector<uint32_t> &s) {
            return s.size() > 10;
        };
    }
    // The pipeline aborts at the effective budget, so observed
    // latencies cap there.
    const double cap = LatencyConfig{}.effectiveBudgetNs();
    const auto observe = [&](const SampleView &view) {
        const int hw = static_cast<int>(view.defects.size());
        run.byHw.record(hw, view.weight, view.failed);
        run.before.add(hw, view.weight);
        run.gt10Before += hw > 10 ? view.weight : 0.0;
        const DecodeTrace &trace = view.trace;
        run.after.add(trace.hwAfter, view.weight);
        run.gt10After += trace.hwAfter > 10 ? view.weight : 0.0;
        // One add per chain. All adds of one sample carry the same
        // weight, so their order cannot change a bin or the total.
        for (size_t hops = 0; hops < trace.chainHops.size(); ++hops) {
            for (uint32_t c = 0; c < trace.chainHops[hops]; ++c) {
                run.chains.add(static_cast<int>(hops), view.weight);
            }
        }
        run.steps[trace.steps.deepest()] += view.weight;
        run.predecodeNs.add(std::min(trace.predecodeNs, cap),
                            view.weight);
        run.totalNs.add(std::min(view.result.latencyNs, cap),
                        view.weight);
    };
    run.ler = estimateLer(ctx, *decoder, options, observe).ler;
    run.done = true;
    std::printf("  done: [%s] %s d=%d p=%s\n", row.artifact.c_str(),
                row.spec.c_str(), row.d, formatSci(row.p).c_str());
}

/** Model metrics read the graph of a deferred-PathTable context. */
double
modelValue(const Row &row)
{
    static std::map<std::pair<int, double>, ExperimentContext> contexts;
    const ExperimentContext &ctx =
        contexts.try_emplace({row.d, row.p}, row.d, row.p, -1, true)
            .first->second;
    const double n = static_cast<double>(ctx.graph().numDetectors());
    const double dense = n * n * sizeof(PathCell);
    const double deferred =
        static_cast<double>(ctx.paths().storageBytes());
    LatencyConfig latency;
    PromatchConfig promatch;
    applySpecOptions(DecoderSpec::parse(row.spec).options, latency,
                     promatch);
    const FpgaEstimate fpga =
        estimateFpga(ctx.graph(), latency.promatchLanes);
    const StorageEstimate storage = estimateStorage(ctx.graph());
    switch (row.metric) {
    case kDetectors: return n;
    case kEdges: return static_cast<double>(ctx.graph().edges().size());
    case kEdgeTable: return storage.edgeTableBytes / 1024.0;
    case kPathTable: return storage.pathTableBytes / 1024.0;
    case kDenseCells: return dense / (1024.0 * 1024.0);
    case kDeferred: return deferred / 1024.0;
    case kRatio: return dense / deferred;
    case kLuts: return static_cast<double>(fpga.luts);
    case kLutPercent: return fpga.lutPercent;
    case kFlipFlops: return static_cast<double>(fpga.flipFlops);
    case kFfPercent: return fpga.ffPercent;
    default: return fpga.frequencyMHz;
    }
}

double
runValue(const Row &row, const Run &run)
{
    const double total = run.before.totalWeight();
    const double steps =
        run.steps[1] + run.steps[2] + run.steps[3] + run.steps[4];
    switch (row.metric) {
    case kLer: return run.ler;
    case kFailHighHw: return run.byHw.conditionalFailRate(11, 64);
    case kGt10Before: return run.gt10Before / total;
    case kGt10After: return run.gt10After / total;
    case kPredecodeMax: return run.predecodeNs.max();
    case kPredecodeMean: return run.predecodeNs.mean();
    case kTotalMax: return run.totalNs.max();
    case kTotalMean: return run.totalNs.mean();
    default: // kStep1..kStep4
        return steps > 0 ? run.steps[row.metric - kStep1 + 1] / steps
                         : 0.0;
    }
}

struct Cell
{
    std::string line, column, text;
};

/** A row's cells: one per histogram bin, else its value and paper. */
std::vector<Cell>
evaluate(const Row &row, const Run *run)
{
    std::vector<Cell> cells;
    const auto bins = [&](const WeightedHistogram &hist, int first,
                          int last, double total) {
        for (int bin = first; bin <= last; ++bin) {
            cells.push_back({std::to_string(bin), row.column,
                             formatSci(hist.probabilityAt(bin, total))});
        }
    };
    if (row.metric == kHwBefore || row.metric == kHwAfter) {
        const WeightedHistogram &hist =
            row.metric == kHwBefore ? run->before : run->after;
        bins(hist, 0, std::max(run->before.maxBin(), hist.maxBin()),
             run->before.totalWeight());
    } else if (row.metric == kChainLength) {
        bins(run->chains, 1, std::min(8, run->chains.maxBin()),
             run->chains.totalWeight());
    } else {
        const double value =
            run ? runValue(row, *run) : modelValue(row);
        cells.push_back({row.line, row.column, format(row.metric, value)});
        if (row.paper > 0) {
            cells.push_back({row.line, "paper " + row.column,
                             format(row.metric, row.paper)});
        }
    }
    return cells;
}

/** Pivot an artifact's cells into its table, lines x columns. */
void
print(Bench &bench, const Artifact &artifact,
      const std::vector<Cell> &cells)
{
    std::vector<std::string> lines, columns{artifact.lineHeader};
    std::map<std::pair<std::string, std::string>, std::string> text;
    const auto insert = [](std::vector<std::string> &list,
                           const std::string &name) {
        if (std::find(list.begin(), list.end(), name) == list.end()) {
            list.push_back(name);
        }
    };
    for (const Cell &cell : cells) {
        insert(lines, cell.line);
        insert(columns, cell.column);
        text[{cell.line, cell.column}] = cell.text;
    }
    ReportTable table(
        "[" + std::string(artifact.name) + "] " + artifact.title, columns);
    for (const std::string &line : lines) {
        std::vector<std::string> row{line};
        for (size_t c = 1; c < columns.size(); ++c) {
            const auto it = text.find({line, columns[c]});
            row.push_back(it == text.end() ? "-" : it->second);
        }
        table.addRow(std::move(row));
    }
    bench.emit(table);
    if (artifact.footnote) {
        std::printf("\n%s\n", artifact.footnote);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    for (const Artifact &artifact : kArtifacts) {
        names.emplace_back(artifact.name);
    }
    Bench bench(argc, argv, "reproduce",
                "Promatch paper reproduction scoreboard", names);

    std::vector<Row> rows;
    for (Row &row : rowTable()) {
        if (bench.artifactEnabled(row.artifact) &&
            bench.specEnabled(row.spec)) {
            rows.push_back(std::move(row));
        }
    }
    // One run per distinct (spec, d, p, sampling options); model rows
    // have none.
    std::map<RunKey, Run> runs;
    for (const Artifact &artifact : kArtifacts) {
        std::vector<Cell> cells;
        for (const Row &row : rows) {
            if (row.artifact != artifact.name) {
                continue;
            }
            Run *run = row.samples > 0 ? &runs[runKey(row)] : nullptr;
            if (run && !run->done) {
                execute(bench, row, *run);
            }
            const std::vector<Cell> own = evaluate(row, run);
            if (!row.note.empty() && !own.empty()) {
                bench.note(row.artifact + "." + row.note, own[0].text);
            }
            cells.insert(cells.end(), own.begin(), own.end());
        }
        if (!cells.empty()) {
            print(bench, artifact, cells);
        }
    }
    return bench.finish();
}
