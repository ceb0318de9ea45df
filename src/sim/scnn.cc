#include "sim/scnn.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace diffy
{

LayerComputeStats
simulateScnnLayer(const LayerTrace &layer, const ScnnConfig &cfg)
{
    const auto &spec = layer.spec;
    const TensorI16 &imap = layer.imap;
    const int in_h = imap.height();
    const int in_w = imap.width();
    const int c_count = spec.inChannels;
    const int halo = spec.effectiveKernel() - 1;

    // Per-channel nonzero weight counts across all filters, counted
    // once when the bank was built.
    std::vector<std::int64_t> nnz_w(c_count, 0);
    if (const WeightBank *bank = layer.weights.get()) {
        const std::vector<std::int64_t> &counts = bank->channelNonzeros();
        std::copy_n(counts.begin(), std::min(nnz_w.size(), counts.size()),
                    nnz_w.begin());
    }

    const int tile_h = (in_h + cfg.peRows - 1) / cfg.peRows;
    const int tile_w = (in_w + cfg.peCols - 1) / cfg.peCols;

    // Integer tallies only inside the tile walk (diffy-lint rule R1):
    // step counts are exact ceil-divs, so the int64 totals convert
    // exactly to the double stats assembled below — byte-identical to
    // the old std::ceil double accumulation (values stay far below
    // 2^53).
    std::int64_t worst_pe_cycles = 0;
    std::int64_t total_products = 0;
    for (int py = 0; py < cfg.peRows; ++py) {
        for (int px = 0; px < cfg.peCols; ++px) {
            // Tile bounds including replicated halo activations.
            const int y0 = std::max(0, py * tile_h - halo / 2);
            const int y1 = std::min(in_h, (py + 1) * tile_h + halo / 2);
            const int x0 = std::max(0, px * tile_w - halo / 2);
            const int x1 = std::min(in_w, (px + 1) * tile_w + halo / 2);
            std::int64_t pe_cycles = 0;
            for (int c = 0; c < c_count; ++c) {
                std::int64_t nnz_a = 0;
                for (int y = y0; y < y1; ++y) {
                    for (int x = x0; x < x1; ++x)
                        nnz_a += imap.at(c, y, x) != 0;
                }
                if (nnz_a == 0 || nnz_w[c] == 0)
                    continue;
                const std::int64_t a_steps =
                    (nnz_a + cfg.actVector - 1) / cfg.actVector;
                const std::int64_t w_steps =
                    (nnz_w[c] + cfg.weightVector - 1) / cfg.weightVector;
                pe_cycles += a_steps * w_steps;
                total_products += nnz_a * nnz_w[c];
            }
            worst_pe_cycles = std::max(worst_pe_cycles, pe_cycles);
        }
    }

    const int out_h = layer.outHeight();
    const int out_w = layer.outWidth();

    LayerComputeStats stats;
    stats.layerName = spec.name;
    stats.computeCycles =
        static_cast<double>(worst_pe_cycles) * cfg.contention;
    stats.traceOutputs =
        static_cast<double>(out_h) * out_w * spec.outChannels;
    stats.traceMacs = static_cast<double>(out_h) * out_w *
                      spec.outChannels *
                      static_cast<double>(spec.macsPerOutput());
    stats.totalSlots = stats.computeCycles * cfg.peRows * cfg.peCols *
                       cfg.actVector * cfg.weightVector;
    stats.usefulSlots = static_cast<double>(total_products);
    return stats;
}

NetworkComputeResult
simulateScnn(const NetworkTrace &trace, const ScnnConfig &cfg)
{
    NetworkComputeResult result;
    result.network = trace.network;
    result.layers.reserve(trace.layers.size());
    for (const auto &layer : trace.layers)
        result.layers.push_back(simulateScnnLayer(layer, cfg));
    return result;
}

} // namespace diffy
