/**
 * @file
 * Ablation: fault propagation through the activation codecs and the
 * re-anchoring containment knob — plus the chaos harness for the
 * resilient runtime (DESIGN.md §12).
 *
 * Diffy's storage advantage comes from keeping activations as X-axis
 * deltas (DeltaD16) and reconstructing them by prefix summation — so
 * a single corrupted stored bit can smear across a whole output row,
 * a failure mode raw-value storage (NoCompression, RawD16) does not
 * have. This bench quantifies that fragility: it sweeps codec x
 * fault model x re-anchor interval, injecting seeded deterministic
 * faults into encoded streams and decoding through the hardened
 * path. Each cell is measured twice: once over bare streams and once
 * over sealed streams (CRC-32C integrity footer), so the table shows
 * how many previously-silent corruptions the footer converts into
 * detected ones ("crc det") and what the re-anchor recovery costs
 * ("rec cyc" = mean values re-decoded from the last clean anchor per
 * detection).
 *
 * --chaos turns the bench into an end-to-end resilience exercise:
 * the same grid runs through the SweepScheduler in keep_going mode
 * while a seeded chaos plan injects transient job exceptions (healed
 * by retry), one permanently poisoned cell, one deadline overrun
 * (quarantined by the watchdog policy), and one on-disk TraceCache
 * corruption (quarantined to `.corrupt` and regenerated). Surviving
 * cells print byte-identically at any --threads value; the
 * SweepReport lists exactly the injected failures and can be dumped
 * with --report-json FILE for CI artifacts.
 *
 * Deterministic: every number derives from --seed (default 1234), so
 * identical invocations print byte-identical tables.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/trace_cache.hh"
#include "encode/schemes.hh"
#include "fault/propagation.hh"
#include "obs/metrics.hh"

using namespace diffy;

namespace
{

/** Smooth ReLU-like activation tensor (DeltaD's favourable regime). */
TensorI16
syntheticActivations(std::uint64_t seed, int c, int h, int w)
{
    Rng rng(seed);
    TensorI16 t(c, h, w);
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < h; ++y) {
            std::int32_t level =
                1000 + static_cast<std::int32_t>(rng.below(3000));
            for (int x = 0; x < w; ++x) {
                if (rng.uniform() < 0.3) {
                    t.at(ch, y, x) = 0;
                } else {
                    level += static_cast<std::int32_t>(rng.below(17)) - 8;
                    level = level < 0 ? 0 : level;
                    t.at(ch, y, x) = static_cast<std::int16_t>(level);
                }
            }
        }
    }
    return t;
}

std::string
fmtPsnr(const PropagationSummary &s)
{
    if (s.silentCorruptions == 0)
        return "-";
    return TextTable::num(s.meanPsnrDb, 1);
}

/** One cell of the codec x fault grid. */
struct GridCell
{
    std::string label;
    double bitsPerValue = 0.0;
    int reanchor = 0;
    const ActivationCodec *codec = nullptr;
    FaultSpec spec;
};

/** Per-cell result: the bare and the CRC-sealed propagation sweeps. */
struct CellResult
{
    PropagationSummary bare;
    PropagationSummary sealed;
};

std::vector<GridCell>
buildGrid(const std::vector<std::pair<std::string, int>> &codecSpecs,
          const std::vector<std::unique_ptr<ActivationCodec>> &codecs,
          const std::vector<FaultSpec> &faults, const TensorI16 &clean)
{
    std::vector<GridCell> grid;
    for (std::size_t ci = 0; ci < codecs.size(); ++ci) {
        double bpv = codecs[ci]->bitsPerValue(clean);
        for (const FaultSpec &spec : faults) {
            GridCell cell;
            cell.label = codecSpecs[ci].first;
            cell.bitsPerValue = bpv;
            cell.reanchor = codecSpecs[ci].second;
            cell.codec = codecs[ci].get();
            cell.spec = spec;
            grid.push_back(cell);
        }
    }
    return grid;
}

CellResult
measureCell(const GridCell &cell, const TensorI16 &clean, int trials,
            std::uint64_t seed)
{
    // Per-cell seed mixes the user seed with stable labels so adding
    // a row never reshuffles the others.
    std::uint64_t cell_seed =
        seed ^ Rng::seedFromString(cell.label + cell.spec.describe());
    CellResult r;
    r.bare = sweepFaults(*cell.codec, clean, cell.spec, trials, cell_seed);
    r.sealed = sweepFaults(*cell.codec, clean, cell.spec, trials,
                           cell_seed, /*sealStreams=*/true, cell.reanchor);
    return r;
}

void
addCellRow(TextTable &table, const GridCell &cell, const CellResult &r)
{
    double n = static_cast<double>(std::max<std::size_t>(1, r.bare.trials));
    table.addRow(
        {cell.label, TextTable::num(cell.bitsPerValue, 2),
         cell.spec.describe(),
         TextTable::percent(static_cast<double>(r.bare.decodeErrors) / n),
         TextTable::percent(
             static_cast<double>(r.bare.silentCorruptions) / n),
         TextTable::percent(static_cast<double>(r.bare.exactDecodes) / n),
         TextTable::num(r.bare.meanCorruptedValues, 1),
         std::to_string(r.bare.maxCorruptedRun), fmtPsnr(r.bare),
         TextTable::percent(static_cast<double>(r.sealed.crcDetected) / n),
         TextTable::percent(
             static_cast<double>(r.sealed.silentCorruptions) / n),
         TextTable::num(r.sealed.meanRecoveryCycles, 1)});
}

TextTable
makeGridTable(int trials)
{
    TextTable table("Ablation: fault propagation by codec, fault model "
                    "and re-anchor interval; bare vs CRC-sealed streams "
                    "(" +
                    std::to_string(trials) + " trials/cell)");
    table.setHeader({"Codec", "bits/val", "Fault", "detected", "silent",
                     "exact", "corrupt vals", "max run", "PSNR dB",
                     "crc det", "silent|crc", "rec cyc"});
    return table;
}

/**
 * Seeded chaos plan over the grid: which cells fail transiently (and
 * how often), which cell is permanently poisoned, which overruns the
 * deadline, and which exercises the corrupt-TraceCache recovery.
 * Derived only from (seed, cellCount), never from scheduling.
 */
struct ChaosPlan
{
    std::vector<int> transientFails; ///< per-cell injected throw count
    std::size_t poisonedCell = 0;
    std::size_t overrunCell = 0;
    std::size_t cacheCell = 0;

    static ChaosPlan make(std::uint64_t seed, std::size_t cells,
                          int transientCells, int failsPerCell)
    {
        ChaosPlan plan;
        plan.transientFails.assign(cells, 0);
        Rng rng(seed ^ 0xC0A05EEDULL);
        // Distinct special cells, then transient cells on top.
        plan.poisonedCell = rng.below(cells);
        do
            plan.overrunCell = rng.below(cells);
        while (plan.overrunCell == plan.poisonedCell);
        do
            plan.cacheCell = rng.below(cells);
        while (plan.cacheCell == plan.poisonedCell ||
               plan.cacheCell == plan.overrunCell);
        int placed = 0;
        while (placed < transientCells) {
            std::size_t cell = rng.below(cells);
            if (cell == plan.poisonedCell || cell == plan.overrunCell ||
                plan.transientFails[cell] != 0)
                continue;
            plan.transientFails[cell] = failsPerCell;
            ++placed;
        }
        return plan;
    }
};

/** Tiny deterministic trace for the chaos TraceCache exercise. */
NetworkTrace
stubTrace()
{
    NetworkTrace trace;
    trace.network = "chaos-stub";
    trace.frameHeight = 8;
    trace.frameWidth = 8;
    LayerTrace layer;
    layer.spec.name = "conv0";
    layer.spec.inChannels = 1;
    layer.spec.outChannels = 1;
    layer.spec.kernel = 3;
    layer.imap = TensorI16(1, 8, 8);
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            layer.imap.at(0, y, x) =
                static_cast<std::int16_t>(y * 8 + x);
    layer.weights = WeightStore::instance().get(
        WeightKey{trace.network, layer.spec.name, 1, 1, 3});
    trace.layers.push_back(std::move(layer));
    return trace;
}

/**
 * Prepare the on-disk corruption: store the stub trace through a
 * TraceCache, then flip bytes in the middle of the file. The sweep's
 * cache cell later reads it back through a fresh TraceCache, which
 * must detect the CRC mismatch, quarantine the file to `.corrupt`,
 * and regenerate. Returns the cache key.
 */
std::string
plantCorruptTrace(const std::string &dir, const NetworkSpec &net,
                  const SceneParams &scene)
{
    TraceCache seedCache(dir, [](const NetworkSpec &, const SceneParams &,
                                 const ExecutorOptions &) {
        return stubTrace();
    });
    (void)seedCache.get(net, scene);
    const std::string key = TraceCache::cacheKey(net, scene, {});
    std::filesystem::path path =
        std::filesystem::path(dir) / (key + ".trace");
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    const char garbage[4] = {'\x5a', '\xa5', '\x3c', '\xc3'};
    f.write(garbage, sizeof garbage);
    return key;
}

int
runChaos(ExperimentParams params, const CliArgs &args, std::uint64_t seed,
         int trials, const std::string &reportJsonPath)
{
    // Chaos exists to exercise recovery: keep_going is forced, and
    // the retry/deadline knobs get defaults generous enough for the
    // injected failures to heal unless the user overrides them. The
    // deadline must have slack for honest cells on slow machines
    // (sanitized builds run several times slower); the injected
    // overrun cell sleeps a multiple of it, so detection does not
    // depend on the margin being tight.
    params.keepGoing = true;
    if (!args.has("max-retries"))
        params.maxRetries = 2;
    if (!args.has("job-timeout-ms"))
        params.jobTimeoutMs = 2000;

    TensorI16 clean = syntheticActivations(seed, 4, 16, 64);

    std::vector<std::pair<std::string, int>> codecSpecs = {
        {"NoCompression", 0}, {"RawD16", 0},      {"DeltaD16", 0},
        {"DeltaD16.A64", 64}, {"DeltaD16.A16", 16}, {"DeltaD16.A4", 4}};
    std::vector<std::unique_ptr<ActivationCodec>> codecs;
    codecs.push_back(makeNoCompressionCodec());
    codecs.push_back(makeRawDCodec(16));
    codecs.push_back(makeDeltaDCodec(16));
    codecs.push_back(makeDeltaDCodec(16, 64));
    codecs.push_back(makeDeltaDCodec(16, 16));
    codecs.push_back(makeDeltaDCodec(16, 4));

    std::vector<FaultSpec> faults;
    {
        FaultSpec s;
        s.model = FaultModel::SingleBit;
        s.target = FaultTarget::Payload;
        faults.push_back(s);
        s.target = FaultTarget::Header;
        faults.push_back(s);
        s.model = FaultModel::Burst;
        s.target = FaultTarget::Any;
        s.burstLength = 8;
        faults.push_back(s);
        s.model = FaultModel::BitRate;
        s.bitErrorRate = 1e-4;
        faults.push_back(s);
    }
    std::vector<GridCell> grid =
        buildGrid(codecSpecs, codecs, faults, clean);

    ChaosPlan plan = ChaosPlan::make(seed, grid.size(),
                                     /*transientCells=*/3,
                                     /*failsPerCell=*/2);

    // On-disk corruption, planted before the sweep starts.
    const std::string cacheDir =
        (std::filesystem::path(params.cacheDir.empty() ? "traces"
                                                       : params.cacheDir) /
         "chaos")
            .string();
    NetworkSpec stubNet;
    stubNet.name = "chaos-stub";
    SceneParams stubScene;
    stubScene.width = 8;
    stubScene.height = 8;
    plantCorruptTrace(cacheDir, stubNet, stubScene);

    std::printf("chaos plan (seed %llu over %zu cells): "
                "%d transient cells x 2 throws, poisoned cell %zu, "
                "deadline overrun cell %zu, corrupt-cache cell %zu\n\n",
                static_cast<unsigned long long>(seed), grid.size(), 3,
                plan.poisonedCell, plan.overrunCell, plan.cacheCell);

    // Per-cell attempt counters: chaos failures are attempt-indexed,
    // never time-based, so the outcome is identical at every thread
    // count.
    std::vector<std::atomic<int>> attempts(grid.size());

    SweepScheduler scheduler = makeSweepScheduler(params);
    std::vector<CellResult> results =
        scheduler.map(grid.size(), [&](SweepJob &job) -> CellResult {
            std::size_t i = job.index;
            int attempt = attempts[i].fetch_add(1);
            if (attempt < plan.transientFails[i])
                throw DecodeError(
                    DecodeStatus::Truncated,
                    "chaos: injected transient decode failure");
            if (i == plan.poisonedCell)
                throw std::runtime_error("chaos: poisoned cell");
            if (i == plan.overrunCell)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    4 * std::max<std::int64_t>(1, params.jobTimeoutMs)));
            if (i == plan.cacheCell) {
                // The disk load must detect the planted corruption,
                // quarantine the file and regenerate the trace.
                TraceCache cache(cacheDir,
                                 [](const NetworkSpec &,
                                    const SceneParams &,
                                    const ExecutorOptions &) {
                                     return stubTrace();
                                 });
                NetworkTrace t = cache.get(stubNet, stubScene);
                if (t.layers.size() != 1 ||
                    t.layers[0].imap.at(0, 7, 7) != 63)
                    throw std::runtime_error(
                        "chaos: regenerated trace is wrong");
            }
            return measureCell(grid[i], clean, trials, seed);
        });
    const SweepReport &report = scheduler.report();

    TextTable table = makeGridTable(trials);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        // The determinism contract covers *surviving* cells only:
        // quarantined rows hold default-constructed results and are
        // skipped.
        if (report.isQuarantined(i))
            continue;
        addCellRow(table, grid[i], results[i]);
    }
    table.print();

    std::printf("\n%s\n", report.summary().c_str());
    auto &reg = obs::MetricsRegistry::instance();
    std::printf("trace_cache.corrupt_evictions: %llu\n",
                static_cast<unsigned long long>(
                    reg.counter("trace_cache.corrupt_evictions").value()));

    if (!reportJsonPath.empty()) {
        std::ofstream out(reportJsonPath);
        report.writeJson(out);
    }

    // The chaos run is an assertion, not just a demo: exactly the
    // injected failures may appear in the report. The cache cell
    // recovers (the corruption is healed on load), the transient
    // cells recover by retry; only the poisoned and the overrun cell
    // stay quarantined.
    const std::size_t expectQuarantined = 2;
    if (report.quarantined != expectQuarantined ||
        report.retriedJobs != 3 || report.timedOut != 1) {
        std::fprintf(stderr,
                     "chaos: report mismatch (quarantined %zu, retried "
                     "%zu, timed out %zu)\n",
                     report.quarantined, report.retriedJobs,
                     report.timedOut);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentParams params = ExperimentParams::fromCliOrExit(argc, argv);
    CliArgs args(argc, argv, {"chaos", "keep-going"});
    std::uint64_t seed = 1234;
    int trials = 100;
    try {
        seed = static_cast<std::uint64_t>(args.getInt("seed", 1234));
        trials =
            std::max(1, static_cast<int>(args.getInt("trials", 100)));
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    if (args.has("chaos"))
        return runChaos(params, args, seed, trials,
                        args.getString("report-json", ""));

    TensorI16 clean = syntheticActivations(seed, 4, 16, 64);

    std::vector<std::pair<std::string, int>> codecSpecs = {
        {"NoCompression", 0}, {"RawD16", 0},      {"DeltaD16", 0},
        {"DeltaD16.A64", 64}, {"DeltaD16.A16", 16}, {"DeltaD16.A4", 4}};
    std::vector<std::unique_ptr<ActivationCodec>> codecs;
    codecs.push_back(makeNoCompressionCodec());
    codecs.push_back(makeRawDCodec(16));
    codecs.push_back(makeDeltaDCodec(16));
    codecs.push_back(makeDeltaDCodec(16, 64));
    codecs.push_back(makeDeltaDCodec(16, 16));
    codecs.push_back(makeDeltaDCodec(16, 4));

    std::vector<FaultSpec> faults;
    {
        FaultSpec s;
        s.model = FaultModel::SingleBit;
        s.target = FaultTarget::Payload;
        faults.push_back(s);
        s.target = FaultTarget::Header;
        faults.push_back(s);
        s.model = FaultModel::Burst;
        s.target = FaultTarget::Any;
        s.burstLength = 8;
        faults.push_back(s);
        s.model = FaultModel::BitRate;
        s.bitErrorRate = 1e-4;
        faults.push_back(s);
    }
    std::vector<GridCell> grid =
        buildGrid(codecSpecs, codecs, faults, clean);

    // The grid itself runs through the sweep scheduler: cells are
    // independent, and the in-order reduction keeps the table
    // byte-identical at any --threads value.
    std::vector<CellResult> results =
        sweepCells(params, grid.size(), [&](SweepJob &job) {
            return measureCell(grid[job.index], clean, trials, seed);
        });

    TextTable table = makeGridTable(trials);
    for (std::size_t i = 0; i < grid.size(); ++i)
        addCellRow(table, grid[i], results[i]);
    table.print();

    std::printf(
        "Reading: a payload flip corrupts exactly one value under raw\n"
        "storage but smears to the end of the row under DeltaD16 (the\n"
        "DR prefix sum); header flips desync the parse and are mostly\n"
        "caught by the hardened decoder as Truncated/BadHeader. The\n"
        "re-anchor interval K caps the silent blast radius at K values\n"
        "(max run column) for a footprint cost visible in bits/val —\n"
        "the containment knob trades storage for blast radius. Sealed\n"
        "streams (CRC-32C footer) convert the remaining silent\n"
        "corruptions into detected ones (crc det vs silent|crc) for a\n"
        "recovery cost of re-decoding from the last clean anchor\n"
        "(rec cyc: K values, or a full row without re-anchoring).\n");
    return 0;
}
