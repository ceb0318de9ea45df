/**
 * @file
 * Temporal-delta inference mode (DESIGN.md §13).
 *
 * The paper's differential convolution (Eq. 4) exploits *spatial*
 * deltas along a row; by the same linearity argument the relation
 * holds across *frames*:
 *
 *     o_t = conv(a_t) = conv(a_{t-1}) + conv(a_t - a_{t-1})
 *         = o_{t-1} + <W, Δa_t>
 *
 * exactly, in integer arithmetic, for any stride/dilation — provided
 * both frames share the same geometry and fixed-point format. This
 * module implements that relation over the nn-layer traces: per-layer
 * state holds the previous frame's imap and omap, a step either
 * re-anchors (full convolution of the frame) or applies the
 * temporal-delta path, and the reconstruction can be checked
 * bit-exactly against the per-frame oracle, convolveDirect(). Both
 * paths run the dispatched KernelTable::convolveI32.
 *
 * Re-anchor policy (mirroring the DeltaD codec's K knob): a layer
 * anchors when it has no state yet, when its geometry or fixed-point
 * format changed (a format change alters quantized values, so the
 * previous frame is not a valid reference), or every K-th frame when
 * a reanchor interval is set — bounding how far any upstream
 * corruption can propagate through a stream.
 *
 * Term accounting reports the work a term-serial accelerator would
 * pay on four encodings of the same layer input: raw values, spatial
 * deltas (Diffy's axis), temporal deltas (this module's axis), and
 * spatial deltas *of* the temporal deltas (both axes composed) — the
 * EXPERIMENTS.md ablation row.
 */

#ifndef DIFFY_CORE_TEMPORAL_HH
#define DIFFY_CORE_TEMPORAL_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "nn/trace.hh"
#include "tensor/tensor.hh"

namespace diffy
{

/**
 * Fixed-point convolution of an int32 delta map — the temporal
 * counterpart of convolveDirect(). Deltas of int16 activations need
 * 17 bits, hence the widened input type. The same-padding geometry
 * and the exact 64-bit sums of convolveDirect() make o_{t-1} +
 * conv(Δ) bit-identical to conv(a_t). Runs @p kernels' convolveI32
 * over a zero-padded copy of @p delta (the dispatched table when
 * omitted).
 *
 * @throws std::overflow_error when an output does not fit int32.
 */
TensorI32 convolveTemporalDelta(const TensorI32 &delta,
                                const FilterBankI16 &bank, int stride,
                                int dilation,
                                const simd::KernelTable &kernels);
TensorI32 convolveTemporalDelta(const TensorI32 &delta,
                                const FilterBankI16 &bank, int stride,
                                int dilation);

/** Widen a frame-to-frame activation delta to its 17-bit range. */
TensorI32 temporalDelta(const TensorI16 &prev, const TensorI16 &cur);

/** Per-layer reference state of a temporal stream. */
struct TemporalLayerState
{
    bool valid = false;
    TensorI16 prevImap;
    TensorI32 prevOmap;
    int prevFracBits = 0;
};

/** Per-stream inference state: one entry per network layer. */
struct TemporalNetState
{
    std::vector<TemporalLayerState> layers;
};

/** Knobs of one temporal step. */
struct TemporalOptions
{
    /**
     * Re-anchor every K-th frame (frameIndex % K == 0); 0 anchors
     * only when a layer has no usable reference. The serving layer
     * reuses this as its periodic keyframe interval.
     */
    int reanchorInterval = 0;
    /**
     * Also run the per-frame reference convolution on every layer and
     * require bit-exact agreement — the oracle check the regression
     * tests and CI pin. Costs a second convolution per layer.
     */
    bool verifyAgainstOracle = false;
};

/** Outcome and work accounting of one temporal step. */
struct TemporalFrameStats
{
    int layerCount = 0;
    /** Layers that took the anchor (full per-frame) path. */
    int anchored = 0;
    /**
     * True when every layer's reconstruction matched the per-frame
     * oracle bit-exactly. Only meaningful under verifyAgainstOracle
     * (stays true otherwise).
     */
    bool exact = true;
    /** Input activations across all layers. */
    std::uint64_t values = 0;
    /** Booth terms of the raw imap values (the no-reuse baseline). */
    std::uint64_t rawTerms = 0;
    /** Booth terms of the spatial x-deltas (Diffy's encoding). */
    std::uint64_t spatialTerms = 0;
    /** Booth terms of the temporal deltas (delta-path layers only —
     *  anchored layers charge their raw terms here). */
    std::uint64_t temporalTerms = 0;
    /** Booth terms of spatial deltas of the temporal deltas. */
    std::uint64_t temporalSpatialTerms = 0;
    /** Wire footprint of the step under the temporal codec: encoded
     *  delta bits for delta-path layers, 16 bits/value at anchors. */
    std::uint64_t codecBits = 0;

    TemporalFrameStats &operator+=(const TemporalFrameStats &o);
};

/**
 * Advance one stream by one frame: for each layer of @p trace, either
 * re-anchor or apply the temporal-delta reconstruction, update
 * @p state, and account the work. @p frameIndex drives the periodic
 * re-anchor policy — it must be the stream's *global* frame index,
 * including frames that were dropped (a gap widens the temporal delta
 * but never corrupts it, since the previous *processed* frame is the
 * reference).
 *
 * @throws std::runtime_error under verifyAgainstOracle when a layer's
 *         reconstruction diverges from the per-frame oracle.
 */
TemporalFrameStats temporalStep(TemporalNetState &state,
                                const NetworkTrace &trace, int frameIndex,
                                const TemporalOptions &opts = {});

} // namespace diffy

#endif // DIFFY_CORE_TEMPORAL_HH
