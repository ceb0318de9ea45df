#include "sim/pra.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/simd.hh"

namespace diffy
{

namespace
{

/**
 * Expand a walk result — {cycles, useful terms}, before filter-group
 * scaling — into full per-configuration layer stats.
 */
LayerComputeStats
assembleStats(const LayerTrace &layer, const AcceleratorConfig &cfg,
              const LayerFacts::Value &walk)
{
    const auto [cycles, useful_terms] = walk;
    const auto &spec = layer.spec;
    const int out_h = layer.outHeight();
    const int out_w = layer.outWidth();
    const double filter_groups = cfg.filterGroups(spec.outChannels);
    const double spatial = cfg.spatialSplit(spec.outChannels);

    LayerComputeStats stats;
    stats.layerName = spec.name;
    stats.computeCycles = cycles * filter_groups / spatial;
    stats.traceOutputs =
        static_cast<double>(out_h) * out_w * spec.outChannels;
    stats.traceMacs = static_cast<double>(out_h) * out_w *
                      spec.outChannels *
                      static_cast<double>(spec.macsPerOutput());
    stats.totalSlots = stats.computeCycles * cfg.tiles *
                       cfg.filtersPerTile * cfg.termsPerFilter *
                       cfg.windowColumns;
    // Each effectual term is consumed once per actual filter; unused
    // filter lanes show up as idle slots (filter underutilization).
    stats.usefulSlots = useful_terms * spec.outChannels;
    return stats;
}

/**
 * The uncached pallet walk. Term counts live in flat uint8 planes
 * (half the cache footprint of the int16 imap) addressed through
 * hoisted row base pointers; cycle and term tallies accumulate in
 * integers — every step cost is a small integer, so the int64 totals
 * convert exactly to the doubles the old double-accumulating walk
 * produced, keeping bench output byte-identical.
 */
LayerFacts::Value
walkLayer(const LayerTrace &layer, const AcceleratorConfig &cfg,
          bool differential, WalkCost cost)
{
    const auto &spec = layer.spec;
    const int out_h = layer.outHeight();
    const int out_w = layer.outWidth();
    const int cols = cfg.windowColumns;
    const int lanes = cfg.termsPerFilter;

    const TermTensors tt = computeTermTensors(layer, cost);
    const TensorI16 &imap = layer.imap;
    const int in_h = imap.height();
    const int in_w = imap.width();
    const int k = spec.kernel;
    const int d = spec.dilation;
    const int s = spec.stride;
    const int pad = spec.samePad();
    const int c_bricks = (spec.inChannels + lanes - 1) / lanes;

    const std::uint8_t *raw_base = tt.raw.data();
    const std::uint8_t *delta_base = tt.delta.data();
    const std::size_t chan_stride =
        static_cast<std::size_t>(in_h) * in_w;

    std::int64_t cycles = 0;
    std::int64_t useful_terms = 0;

    // Per-SIP weight staging lets the window columns of a pallet slip
    // against each other; they synchronize only when the pallet
    // retires (the next pallet needs the shared dispatcher). Within a
    // column, the termsPerFilter activation lanes of a step share the
    // SIP adder tree and advance at the pace of their widest value.
    std::vector<std::int64_t> col_cycles(static_cast<std::size_t>(cols));
    std::vector<std::uint8_t> step_max(static_cast<std::size_t>(cols));
    const simd::KernelTable &kt = simd::kernels();

    for (int oy = 0; oy < out_h; ++oy) {
        for (int px = 0; px < out_w; px += cols) {
            const int cols_here = std::min(cols, out_w - px);
            std::fill(col_cycles.begin(),
                      col_cycles.begin() + cols_here, 0);
            for (int cb = 0; cb < c_bricks; ++cb) {
                const int c_lo = cb * lanes;
                const int c_hi =
                    std::min(c_lo + lanes, spec.inChannels);
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy * s + ky * d - pad;
                    if (iy < 0 || iy >= in_h) {
                        // Padding rows: zero terms; every column still
                        // spends the minimum cycle per kx step.
                        for (int j = 0; j < cols_here; ++j)
                            col_cycles[j] += k;
                        continue;
                    }
                    const std::size_t row_off =
                        static_cast<std::size_t>(iy) * in_w;
                    for (int kx = 0; kx < k; ++kx) {
                        // ix of window column j is x0 + j*s; interior
                        // columns [j_lo, j_hi) have ix in [0, in_w).
                        const int x0 = px * s + kx * d - pad;
                        int j_lo = x0 < 0 ? (-x0 + s - 1) / s : 0;
                        if (j_lo > cols_here)
                            j_lo = cols_here;
                        int j_hi =
                            x0 < in_w
                                ? std::min(cols_here,
                                           (in_w - 1 - x0) / s + 1)
                                : 0;
                        if (j_hi < j_lo)
                            j_hi = j_lo;
                        std::fill(step_max.begin(),
                                  step_max.begin() + cols_here,
                                  std::uint8_t{0});

                        // Boundary columns: taps in the zero padding
                        // contribute nothing, except the differential
                        // case where the tap reads padding but the
                        // previous window's tap did not — the delta is
                        // -a[ix-s], whose term count equals the raw
                        // count at ix-s.
                        auto boundaryColumn = [&](int j) {
                            const int ix = x0 + j * s;
                            const bool raw =
                                !differential || px + j == 0;
                            if (raw || ix - s < 0 || ix - s >= in_w)
                                return;
                            const std::size_t off =
                                row_off + static_cast<std::size_t>(ix) -
                                s;
                            int sm = 0;
                            for (int c = c_lo; c < c_hi; ++c) {
                                const int t =
                                    raw_base[c * chan_stride + off];
                                useful_terms += t;
                                if (t > sm)
                                    sm = t;
                            }
                            step_max[j] =
                                static_cast<std::uint8_t>(sm);
                        };
                        for (int j = 0; j < j_lo; ++j)
                            boundaryColumn(j);
                        for (int j = j_hi; j < cols_here; ++j)
                            boundaryColumn(j);

                        // Interior columns are all in bounds; all of
                        // them read the delta stream in differential
                        // mode except window x == 0 (the raw anchor of
                        // each output row), peeled off below so the
                        // main loop is branch-free.
                        int ji = j_lo;
                        if (differential && px == 0 && j_lo == 0 &&
                            j_hi > 0) {
                            const std::size_t off =
                                row_off + static_cast<std::size_t>(x0);
                            int sm = 0;
                            for (int c = c_lo; c < c_hi; ++c) {
                                const int t =
                                    raw_base[c * chan_stride + off];
                                useful_terms += t;
                                if (t > sm)
                                    sm = t;
                            }
                            step_max[0] =
                                static_cast<std::uint8_t>(sm);
                            ji = 1;
                        }
                        if (ji < j_hi) {
                            // Interior block: one dispatched kernel
                            // call sums every term and records the
                            // per-column max over the channel rows
                            // (wide loads; common/simd.hh). The
                            // kernel overwrites its colMax span,
                            // which is disjoint from the boundary
                            // and anchor columns handled above.
                            const std::uint8_t *plane =
                                differential ? delta_base : raw_base;
                            const std::uint8_t *block =
                                plane + c_lo * chan_stride + row_off +
                                (x0 +
                                 static_cast<std::ptrdiff_t>(ji) * s);
                            useful_terms += kt.walkSumMax(
                                block, chan_stride,
                                static_cast<std::size_t>(c_hi - c_lo),
                                s, step_max.data() + ji, j_hi - ji);
                        }

                        for (int j = 0; j < cols_here; ++j)
                            col_cycles[j] +=
                                step_max[j] > 1 ? step_max[j] : 1;
                    }
                }
            }
            std::int64_t pallet = 0;
            for (int j = 0; j < cols_here; ++j)
                pallet = std::max(pallet, col_cycles[j]);
            cycles += pallet;
        }
    }

    return {static_cast<double>(cycles), static_cast<double>(useful_terms)};
}

} // namespace

LayerComputeStats
simulateTermSerialLayer(const LayerTrace &layer,
                        const AcceleratorConfig &cfg, bool differential,
                        WalkCost cost)
{
    // The walk depends only on the layer and (lanes, columns,
    // differential, cost) — not on filter counts, tiles, the memory
    // system or the scheme the sweeps vary — so it is a layer fact.
    const FactKey key{FactKind::Walk, cfg.termsPerFilter,
                      cfg.windowColumns,
                      static_cast<int>(cost) * 2 + (differential ? 1 : 0)};
    return assembleStats(layer, cfg, layer.facts.get(key, [&] {
        return walkLayer(layer, cfg, differential, cost);
    }));
}

LayerComputeStats
simulatePraLayer(const LayerTrace &layer, const AcceleratorConfig &cfg)
{
    return simulateTermSerialLayer(layer, cfg, /*differential=*/false);
}

NetworkComputeResult
simulatePra(const NetworkTrace &trace, const AcceleratorConfig &cfg)
{
    NetworkComputeResult result;
    result.network = trace.network;
    result.layers.reserve(trace.layers.size());
    for (const auto &layer : trace.layers)
        result.layers.push_back(simulatePraLayer(layer, cfg));
    return result;
}

} // namespace diffy
