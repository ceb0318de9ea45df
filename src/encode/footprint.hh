/**
 * @file
 * Storage footprint and off-chip traffic accounting (Figs 5 and 14,
 * Table V).
 *
 * Footprint: total bits to hold the imaps of every layer under a
 * scheme (the paper's Fig 5 metric, normalized to 16b storage).
 *
 * Traffic: bytes moved off-chip per frame under the two-window-row
 * dataflow of Section III-F — every weight read once per layer, every
 * imap read once, every omap written once. Intermediate feature maps
 * are therefore counted twice (one write by the producer layer, one
 * read by the consumer); metadata is included via the codecs' exact
 * bit counts.
 *
 * AM sizing (Table V): the activation memory must hold, for the worst
 * layer, enough input rows for two complete rows of windows at the
 * target frame width, stored at the scheme's measured bits/value.
 */

#ifndef DIFFY_ENCODE_FOOTPRINT_HH
#define DIFFY_ENCODE_FOOTPRINT_HH

#include <vector>

#include "arch/config.hh"
#include "nn/trace.hh"

namespace diffy
{

/** Per-layer compressed-size measurement. */
struct LayerFootprint
{
    std::string layerName;
    std::size_t values = 0;     ///< activation count at trace resolution
    double bitsPerValue = 0.0;  ///< measured, metadata included
    /// Per-layer profiled precision used; 16 for the other schemes.
    int profiledBits = 16;
};

/** Whole-network footprint under one scheme. */
struct NetworkFootprint
{
    Compression scheme = Compression::None;
    std::vector<LayerFootprint> layers;

    /** Total imap bits at the trace resolution. */
    double totalBits() const;

    /** Ratio of this footprint to 16b/value storage. */
    double normalizedTo16b() const;
};

/**
 * Measure the per-layer compressed imap sizes of a trace under a
 * scheme. @p profile supplies per-layer precisions for Profiled; it
 * may be empty for the other schemes.
 */
NetworkFootprint measureFootprint(const NetworkTrace &trace,
                                  Compression scheme,
                                  const std::vector<int> &profile = {});

/**
 * Off-chip traffic in bytes for one frame at the target resolution,
 * extrapolated from the measured bits/value of each layer's imap.
 * Includes weights (16b, once per layer), all imap reads and omap
 * writes. The final omap is charged at its producing layer's
 * compression ratio.
 */
double frameTrafficBytes(const NetworkTrace &trace, Compression scheme,
                         int frame_h, int frame_w,
                         const std::vector<int> &profile = {});

/**
 * Per-layer off-chip traffic (bytes at target resolution) in layer
 * order: weights + imap read + omap write, used by the memory-system
 * overlap model.
 */
std::vector<double> perLayerTrafficBytes(const NetworkTrace &trace,
                                         Compression scheme,
                                         int frame_h, int frame_w,
                                         const std::vector<int> &profile
                                         = {});

/**
 * Activation-memory bytes required by the worst layer of a trace at
 * the target frame width under the paper's dataflow (see file
 * comment). Uses measured bits/value per layer.
 */
double amRequiredBytes(const NetworkTrace &trace, Compression scheme,
                       int frame_w,
                       const std::vector<int> &profile = {});

} // namespace diffy

#endif // DIFFY_ENCODE_FOOTPRINT_HH
