/**
 * @file
 * Tests for the cycle-level timing models: closed-form checks on
 * constructed inputs and the cross-model invariants the paper's
 * evaluation relies on (PRA <= VAA, Diffy <= PRA on correlated data,
 * T1 efficiency, Delta-out floor, SCNN sparsity behaviour).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "analysis/precision.hh"
#include "common/rng.hh"
#include "encode/footprint.hh"
#include "encode/schemes.hh"
#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "runtime/sweep.hh"
#include "sim/diffy_sim.hh"
#include "sim/pra.hh"
#include "sim/runner.hh"
#include "sim/scnn.hh"
#include "sim/vaa.hh"

namespace diffy
{
namespace
{

/** Build a synthetic LayerTrace with the given imap and shape. */
LayerTrace
makeLayer(TensorI16 imap, int out_channels, int kernel = 3, int stride = 1,
          int dilation = 1)
{
    LayerTrace lt;
    lt.spec.name = "test";
    lt.spec.inChannels = imap.channels();
    lt.spec.outChannels = out_channels;
    lt.spec.kernel = kernel;
    lt.spec.stride = stride;
    lt.spec.dilation = dilation;
    lt.imap = std::move(imap);
    lt.weights = FilterBankI16(out_channels, lt.spec.inChannels, kernel,
                               kernel, 1);
    return lt;
}

NetworkTrace
sceneTrace(const NetworkSpec &net, int size = 24, std::uint64_t seed = 51)
{
    SceneParams p;
    p.kind = SceneKind::Nature;
    p.width = size;
    p.height = size;
    p.seed = seed;
    return runNetwork(net, renderScene(p));
}

TEST(TermTensors, RawAndDeltaMatchDefinition)
{
    TensorI16 imap(1, 1, 4);
    imap.at(0, 0, 0) = 5; // 2 terms
    imap.at(0, 0, 1) = 5; // delta 0
    imap.at(0, 0, 2) = 7; // delta 2 -> 1 term
    imap.at(0, 0, 3) = 0; // delta -7 -> 2 terms
    LayerTrace lt = makeLayer(imap, 1);
    TermTensors tt = computeTermTensors(lt);
    EXPECT_EQ(tt.raw.at(0, 0, 0), 2);
    EXPECT_EQ(tt.raw.at(0, 0, 2), 2);
    EXPECT_EQ(tt.delta.at(0, 0, 0), 2); // x < stride: raw
    EXPECT_EQ(tt.delta.at(0, 0, 1), 0);
    EXPECT_EQ(tt.delta.at(0, 0, 2), 1);
    EXPECT_EQ(tt.delta.at(0, 0, 3), 2);
}

TEST(TermTensors, StrideDistanceDeltas)
{
    TensorI16 imap(1, 1, 6);
    for (int x = 0; x < 6; ++x)
        imap.at(0, 0, x) = static_cast<std::int16_t>(x * 4);
    LayerTrace lt = makeLayer(imap, 1, 3, 2);
    TermTensors tt = computeTermTensors(lt);
    // Stride 2: delta = a[x] - a[x-2] = 8 -> 1 term for x >= 2.
    EXPECT_EQ(tt.delta.at(0, 0, 2), 1);
    EXPECT_EQ(tt.delta.at(0, 0, 5), 1);
    // x < stride: raw values 0 and 4.
    EXPECT_EQ(tt.delta.at(0, 0, 0), 0);
    EXPECT_EQ(tt.delta.at(0, 0, 1), 1);
}

/**
 * Straightforward per-tap reference of the term-serial pallet walk
 * (the pre-optimization algorithm): no interior/boundary split, no
 * hoisted row pointers, double accumulation. The production walk in
 * sim/pra.cc must reproduce it exactly.
 */
LayerComputeStats
referenceTermSerialLayer(const LayerTrace &layer,
                         const AcceleratorConfig &cfg, bool differential,
                         WalkCost cost)
{
    const auto &spec = layer.spec;
    const int out_h = layer.outHeight();
    const int out_w = layer.outWidth();
    const int cols = cfg.windowColumns;
    const int lanes = cfg.termsPerFilter;

    const TermTensors tt = computeTermTensors(layer, cost);
    const int in_h = layer.imap.height();
    const int in_w = layer.imap.width();
    const int k = spec.kernel;
    const int d = spec.dilation;
    const int s = spec.stride;
    const int pad = spec.samePad();
    const int c_bricks = (spec.inChannels + lanes - 1) / lanes;

    double cycles = 0.0;
    double useful_terms = 0.0;
    std::vector<double> col_cycles(static_cast<std::size_t>(cols));

    for (int oy = 0; oy < out_h; ++oy) {
        for (int px = 0; px < out_w; px += cols) {
            const int cols_here = std::min(cols, out_w - px);
            std::fill(col_cycles.begin(), col_cycles.end(), 0.0);
            for (int cb = 0; cb < c_bricks; ++cb) {
                const int c_lo = cb * lanes;
                const int c_hi = std::min(c_lo + lanes, spec.inChannels);
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy * s + ky * d - pad;
                    if (iy < 0 || iy >= in_h) {
                        for (int j = 0; j < cols_here; ++j)
                            col_cycles[j] += static_cast<double>(k);
                        continue;
                    }
                    for (int kx = 0; kx < k; ++kx) {
                        for (int j = 0; j < cols_here; ++j) {
                            const int wx = px + j;
                            const int ix = wx * s + kx * d - pad;
                            const bool raw = !differential || wx == 0;
                            int step_max = 0;
                            if (ix >= 0 && ix < in_w) {
                                const auto &terms =
                                    raw ? tt.raw : tt.delta;
                                for (int c = c_lo; c < c_hi; ++c) {
                                    int t = terms.at(c, iy, ix);
                                    useful_terms += t;
                                    if (t > step_max)
                                        step_max = t;
                                }
                            } else if (!raw && ix - s >= 0 &&
                                       ix - s < in_w) {
                                for (int c = c_lo; c < c_hi; ++c) {
                                    int t = tt.raw.at(c, iy, ix - s);
                                    useful_terms += t;
                                    if (t > step_max)
                                        step_max = t;
                                }
                            }
                            col_cycles[j] += std::max(1, step_max);
                        }
                    }
                }
            }
            double pallet = 0.0;
            for (int j = 0; j < cols_here; ++j)
                pallet = std::max(pallet, col_cycles[j]);
            cycles += pallet;
        }
    }

    LayerComputeStats stats;
    stats.layerName = spec.name;
    stats.computeCycles = cycles *
                          cfg.filterGroups(spec.outChannels) /
                          cfg.spatialSplit(spec.outChannels);
    stats.usefulSlots = useful_terms * spec.outChannels;
    return stats;
}

TEST(TermSerialWalk, MatchesReferenceAcrossGeometries)
{
    Rng rng(77);
    struct Geometry
    {
        int c, h, w, kernel, stride, dilation;
    };
    const Geometry geoms[] = {
        {20, 9, 18, 3, 1, 1}, // channels cross the 16-lane brick
        {4, 7, 7, 5, 1, 1},   // kernel reach exceeds the interior
        {8, 6, 33, 3, 2, 1},  // strided, width not a pallet multiple
        {8, 5, 12, 3, 1, 2},  // dilated taps
        {3, 4, 4, 3, 2, 2},   // tiny imap: mostly boundary columns
        {16, 8, 16, 1, 1, 1}, // pointwise
    };
    for (const auto &g : geoms) {
        TensorI16 imap(g.c, g.h, g.w);
        for (std::size_t i = 0; i < imap.size(); ++i) {
            imap.data()[i] =
                static_cast<std::int16_t>(rng.below(2048) - 512);
        }
        LayerTrace lt =
            makeLayer(imap, 24, g.kernel, g.stride, g.dilation);
        for (AcceleratorConfig cfg :
             {defaultDiffyConfig(), defaultPraConfig()}) {
            cfg.windowColumns = 5; // force ragged pallets too
            for (bool differential : {false, true}) {
                for (WalkCost cost :
                     {WalkCost::BoothTerms, WalkCost::BitSerial}) {
                    // A copy starts with no facts, so every call
                    // walks instead of reading an earlier walk.
                    const LayerTrace fresh = lt;
                    auto got = simulateTermSerialLayer(fresh, cfg,
                                                       differential, cost);
                    auto want = referenceTermSerialLayer(
                        lt, cfg, differential, cost);
                    EXPECT_DOUBLE_EQ(got.computeCycles,
                                     want.computeCycles)
                        << g.c << 'x' << g.h << 'x' << g.w << " k"
                        << g.kernel << " s" << g.stride << " d"
                        << g.dilation << " diff=" << differential;
                    EXPECT_DOUBLE_EQ(got.usefulSlots, want.usefulSlots)
                        << g.c << 'x' << g.h << 'x' << g.w << " k"
                        << g.kernel << " s" << g.stride << " d"
                        << g.dilation << " diff=" << differential;
                }
            }
        }
    }
}

/** Layer-fact fills so far: walks, bits/value, precisions. */
using Fills = std::array<std::uint64_t, 3>;

Fills
factFills()
{
    auto &reg = obs::MetricsRegistry::instance();
    return {reg.counter("sim.walks").value(),
            reg.counter("encode.bits_measured").value(),
            reg.counter("encode.precisions_profiled").value()};
}

TEST(LayerFacts, SharedTraceFillsEachFactOnceAcrossThreads)
{
    const NetworkTrace trace = sceneTrace(makeDnCnn(), 24, 53);
    const std::size_t layers = trace.layers.size();
    const AcceleratorConfig pra = defaultPraConfig();
    const AcceleratorConfig diffy = defaultDiffyConfig();

    // Two consecutive sweeps of eight workers over one const trace;
    // odd cells run the sims first, so fills of one fact race from
    // both orders.
    struct Run
    {
        NetworkFootprint delta, profiled;
        NetworkComputeResult pra, diffy;
    };
    auto sweepOnce = [&] {
        SweepScheduler scheduler(8, 1);
        return scheduler.map(8, [&](SweepJob &job) {
            Run r;
            for (std::size_t step = 0; step < 2; ++step) {
                if ((step + job.index) % 2 == 0) {
                    r.delta = measureFootprint(trace, Compression::DeltaD16);
                    r.profiled = measureFootprint(trace, Compression::Profiled);
                } else {
                    r.pra = simulateCompute(trace, pra);
                    r.diffy = simulateCompute(trace, diffy);
                }
            }
            return r;
        });
    };
    const Fills before = factFills();
    const std::vector<Run> runs = sweepOnce();
    // One fill per (layer, key): PRA's raw walk, Diffy's differential
    // walk, DeltaD16's bits/value and the self-profiled precision.
    const Fills filled = factFills();
    EXPECT_EQ(filled, (Fills{before[0] + 2 * layers, before[1] + layers,
                             before[2] + layers}));
    sweepOnce();
    EXPECT_EQ(factFills(), filled);

    // Every result equals the uncached oracles.
    for (std::size_t li = 0; li < layers; ++li) {
        const LayerTrace &layer = trace.layers[li];
        PrecisionProfiler profiler;
        profiler.addLayer(0, layer.imap);
        const int bits = profiler.layerPrecision(0);
        const double delta_bpv =
            makeCodec(Compression::DeltaD16, 16)->bitsPerValue(layer.imap);
        const double profiled_bpv =
            makeCodec(Compression::Profiled, bits)->bitsPerValue(layer.imap);
        const LayerComputeStats pra_walk = referenceTermSerialLayer(
            layer, pra, false, WalkCost::BoothTerms);
        const LayerComputeStats diffy_walk = referenceTermSerialLayer(
            layer, diffy, true, WalkCost::BoothTerms);
        // A copy has no facts, so this recomputes Diffy's layer (the
        // walk plus its Delta-out floor) from scratch.
        const double diffy_cycles =
            simulateDiffyLayer(LayerTrace(layer), diffy,
                               DiffyMode::Differential)
                .computeCycles;
        for (const Run &r : runs) {
            EXPECT_EQ(r.delta.layers[li].bitsPerValue, delta_bpv);
            EXPECT_EQ(r.profiled.layers[li].profiledBits, bits);
            EXPECT_EQ(r.profiled.layers[li].bitsPerValue, profiled_bpv);
            EXPECT_EQ(r.pra.layers[li].computeCycles, pra_walk.computeCycles);
            EXPECT_EQ(r.pra.layers[li].usefulSlots, pra_walk.usefulSlots);
            EXPECT_EQ(r.diffy.layers[li].computeCycles, diffy_cycles);
            EXPECT_EQ(r.diffy.layers[li].usefulSlots,
                      diffy_walk.usefulSlots);
        }
    }
}

TEST(VaaSim, ClosedFormCycles)
{
    // 32 channels, 16x16 imap, 3x3 kernel, 64 filters, default config
    // (4 tiles x 16 filters x 16 lanes): windows=256, brick steps =
    // ceil(32/16)*9 = 18, filter groups = 1 -> 4608 cycles.
    TensorI16 imap(32, 16, 16, 100);
    LayerTrace lt = makeLayer(imap, 64);
    LayerComputeStats stats = simulateVaaLayer(lt, defaultVaaConfig());
    EXPECT_DOUBLE_EQ(stats.computeCycles, 256.0 * 18.0);
}

TEST(VaaSim, ValueAgnostic)
{
    TensorI16 zeros(16, 8, 8, 0);
    TensorI16 wide(16, 8, 8, 32767);
    AcceleratorConfig cfg = defaultVaaConfig();
    EXPECT_DOUBLE_EQ(
        simulateVaaLayer(makeLayer(zeros, 16), cfg).computeCycles,
        simulateVaaLayer(makeLayer(wide, 16), cfg).computeCycles);
}

TEST(VaaSim, FilterUnderutilizationCostsFullGroup)
{
    TensorI16 imap(16, 8, 8, 1);
    AcceleratorConfig cfg = defaultVaaConfig();
    // Default dataflow partitions only across filters: 3 filters take
    // as long as 64, with the useful fraction collapsing (the paper's
    // last-layer utilization story).
    LayerComputeStats few = simulateVaaLayer(makeLayer(imap, 3), cfg);
    LayerComputeStats full = simulateVaaLayer(makeLayer(imap, 64), cfg);
    EXPECT_DOUBLE_EQ(few.computeCycles, full.computeCycles);
    EXPECT_LT(few.usefulFraction(), full.usefulFraction());
}

TEST(VaaSim, SpatialWorkSharingSplitsRows)
{
    TensorI16 imap(16, 8, 8, 1);
    AcceleratorConfig cfg = defaultVaaConfig();
    cfg.spatialWorkSharing = true;
    // 3 filters occupy one tile; the other three work-share the rows.
    LayerComputeStats few = simulateVaaLayer(makeLayer(imap, 3), cfg);
    LayerComputeStats full = simulateVaaLayer(makeLayer(imap, 64), cfg);
    EXPECT_DOUBLE_EQ(few.computeCycles, full.computeCycles / 4.0);
}

TEST(PraSim, SpatialWorkSharingScalesWithTiles)
{
    // With work-sharing on, doubling tiles beyond the filter demand
    // halves the cycles; with it off, extra tiles change nothing.
    NetworkTrace trace = sceneTrace(makeIrCnn(), 16);
    AcceleratorConfig base = defaultDiffyConfig();
    AcceleratorConfig wide = base;
    wide.tiles = 8;
    EXPECT_DOUBLE_EQ(simulateDiffy(trace, wide).totalComputeCycles(),
                     simulateDiffy(trace, base).totalComputeCycles());
    base.spatialWorkSharing = true;
    wide.spatialWorkSharing = true;
    EXPECT_NEAR(simulateDiffy(trace, wide).totalComputeCycles(),
                simulateDiffy(trace, base).totalComputeCycles() / 2.0,
                simulateDiffy(trace, base).totalComputeCycles() * 0.02);
}

TEST(PraSim, AllZeroImapCostsOneCyclePerStep)
{
    TensorI16 imap(16, 8, 8, 0);
    LayerTrace lt = makeLayer(imap, 64); // fills the 4x16 filter grid
    AcceleratorConfig cfg = defaultPraConfig();
    LayerComputeStats stats = simulatePraLayer(lt, cfg);
    // 8 rows x ceil(8/16)=1 pallet x 1 brick x 9 taps = 72 steps.
    EXPECT_DOUBLE_EQ(stats.computeCycles, 72.0);
    EXPECT_DOUBLE_EQ(stats.usefulSlots, 0.0);
}

TEST(PraSim, UniformPowerOfTwoImapTakesOneCyclePerStep)
{
    TensorI16 imap(16, 8, 8, 256); // 1 term everywhere
    LayerTrace lt = makeLayer(imap, 64);
    LayerComputeStats stats = simulatePraLayer(lt, defaultPraConfig());
    EXPECT_DOUBLE_EQ(stats.computeCycles, 72.0);
}

TEST(PraSim, SyncCostIsGroupMaximum)
{
    // One 4-term value per brick forces every step to 4 cycles.
    TensorI16 imap(16, 8, 8, 256);      // 1 term
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x)
            imap.at(0, y, x) = 0b101010101; // 341: alternating bits
    }
    int group_terms = 5; // NAF of 341 has 5 digits
    LayerTrace lt = makeLayer(imap, 64);
    LayerComputeStats stats = simulatePraLayer(lt, defaultPraConfig());
    // 72 steps total; the 6 padding-row steps (ky=0 of the top output
    // row and ky=2 of the bottom one, 3 kx steps each) cost 1 cycle,
    // the remaining 66 cost the 5-term group maximum.
    EXPECT_DOUBLE_EQ(stats.computeCycles, 6.0 + 66.0 * group_terms);
}

TEST(PraSim, NeverSlowerThanVaaOnRealTraces)
{
    NetworkTrace trace = sceneTrace(makeIrCnn());
    AcceleratorConfig vaa = defaultVaaConfig();
    AcceleratorConfig pra = defaultPraConfig();
    auto rv = simulateVaa(trace, vaa);
    auto rp = simulatePra(trace, pra);
    for (std::size_t i = 0; i < rv.layers.size(); ++i) {
        EXPECT_LE(rp.layers[i].computeCycles,
                  rv.layers[i].computeCycles * 1.001)
            << trace.layers[i].spec.name;
    }
}

TEST(DiffySim, FasterThanPraOnCorrelatedTraces)
{
    NetworkTrace trace = sceneTrace(makeDnCnn());
    AcceleratorConfig cfg = defaultDiffyConfig();
    double pra = simulatePra(trace, cfg).totalComputeCycles();
    double dfy = simulateDiffy(trace, cfg).totalComputeCycles();
    EXPECT_LT(dfy, pra);
}

TEST(DiffySim, RawModeEqualsPra)
{
    NetworkTrace trace = sceneTrace(makeIrCnn());
    AcceleratorConfig cfg = defaultDiffyConfig();
    auto raw = simulateDiffy(trace, cfg, DiffyMode::Raw);
    auto pra = simulatePra(trace, cfg);
    for (std::size_t i = 0; i < raw.layers.size(); ++i) {
        EXPECT_DOUBLE_EQ(raw.layers[i].computeCycles,
                         pra.layers[i].computeCycles);
    }
}

TEST(DiffySim, AutoModeNeverWorseThanEitherFixedMode)
{
    NetworkTrace trace = sceneTrace(makeVdsr());
    AcceleratorConfig cfg = defaultDiffyConfig();
    for (const auto &layer : trace.layers) {
        double diff =
            simulateDiffyLayer(layer, cfg, DiffyMode::Differential)
                .computeCycles;
        double raw =
            simulateDiffyLayer(layer, cfg, DiffyMode::Raw).computeCycles;
        double aut =
            simulateDiffyLayer(layer, cfg, DiffyMode::Auto).computeCycles;
        EXPECT_LE(aut, std::min(diff, raw) + 1e-9);
    }
}

TEST(DiffySim, ConstantRowsApproachDeltaOutFloor)
{
    // A constant imap makes the differential stream all-zero; the
    // pallet cost collapses to the step floor, and the Delta-out
    // engine becomes the pacer.
    TensorI16 imap(16, 16, 64, 1234);
    LayerTrace lt = makeLayer(imap, 64);
    AcceleratorConfig cfg = defaultDiffyConfig();
    LayerComputeStats diff = simulateDiffyLayer(lt, cfg);
    // Floor: pallets = 16 rows x 4 pallets; 32 delta-out cycles each.
    double pallets = 16.0 * 4.0;
    EXPECT_GE(diff.computeCycles, pallets * 32.0 - 1e-9);
}

TEST(TilingSensitivity, T1RaisesRelativeAdvantage)
{
    // The T1 configuration removes cross-lane imbalance: Diffy's
    // speedup over an equally configured VAA must grow (Fig 16).
    NetworkTrace trace = sceneTrace(makeDnCnn(), 20);
    AcceleratorConfig t16_vaa = defaultVaaConfig();
    AcceleratorConfig t16_dfy = defaultDiffyConfig();
    AcceleratorConfig t1_vaa = t16_vaa;
    t1_vaa.termsPerFilter = 1;
    AcceleratorConfig t1_dfy = t16_dfy;
    t1_dfy.termsPerFilter = 1;

    double s16 = simulateVaa(trace, t16_vaa).totalComputeCycles() /
                 simulateDiffy(trace, t16_dfy).totalComputeCycles();
    double s1 = simulateVaa(trace, t1_vaa).totalComputeCycles() /
                simulateDiffy(trace, t1_dfy).totalComputeCycles();
    EXPECT_GT(s1, s16);
}

TEST(ScnnSim, ZeroActivationsCostNothing)
{
    TensorI16 imap(16, 16, 16, 0);
    LayerTrace lt = makeLayer(imap, 16);
    LayerComputeStats stats = simulateScnnLayer(lt, ScnnConfig{});
    EXPECT_DOUBLE_EQ(stats.computeCycles, 0.0);
}

TEST(ScnnSim, WeightSparsityCutsCycles)
{
    NetworkSpec net = makeIrCnn();
    ExecutorOptions dense;
    ExecutorOptions sparse;
    sparse.weightSparsity = 0.75;
    SceneParams p;
    p.width = 24;
    p.height = 24;
    p.seed = 61;
    auto img = renderScene(p);
    double dense_cycles =
        simulateScnn(runNetwork(net, img, dense)).totalComputeCycles();
    double sparse_cycles =
        simulateScnn(runNetwork(net, img, sparse)).totalComputeCycles();
    EXPECT_LT(sparse_cycles, dense_cycles * 0.55);
}

TEST(ScnnSim, FragmentationMakesItSlowerThanPerfectScaling)
{
    // Cycles must be at least total products / 1024 multipliers.
    NetworkTrace trace = sceneTrace(makeIrCnn());
    auto result = simulateScnn(trace);
    for (std::size_t i = 0; i < result.layers.size(); ++i) {
        const auto &ls = result.layers[i];
        EXPECT_GE(ls.computeCycles * 1024.0 + 1e-6, ls.usefulSlots)
            << i;
    }
}

TEST(Runner, DispatchMatchesDesigns)
{
    NetworkTrace trace = sceneTrace(makeIrCnn(), 16);
    AcceleratorConfig vaa = defaultVaaConfig();
    AcceleratorConfig pra = defaultPraConfig();
    AcceleratorConfig dfy = defaultDiffyConfig();
    EXPECT_DOUBLE_EQ(simulateCompute(trace, vaa).totalComputeCycles(),
                     simulateVaa(trace, vaa).totalComputeCycles());
    EXPECT_DOUBLE_EQ(simulateCompute(trace, pra).totalComputeCycles(),
                     simulatePra(trace, pra).totalComputeCycles());
    EXPECT_DOUBLE_EQ(simulateCompute(trace, dfy).totalComputeCycles(),
                     simulateDiffy(trace, dfy).totalComputeCycles());
}

} // namespace
} // namespace diffy
