#include "core/temporal.hh"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/fixed_point.hh"
#include "common/pool.hh"
#include "core/differential_conv.hh"
#include "encode/temporal.hh"

namespace diffy
{

namespace
{

/**
 * Fixed-point same-padded convolution through
 * KernelTable::convolveI32: @p in is widened into a zero-padded int32
 * copy, so the kernel runs without bounds checks, and the copy's
 * arena space goes back to the frame when the kernel returns. The
 * sums are exact in int64 in any order (simd.hh), so the result is
 * bit-identical to convolveDirect() on the same values. Errors carry
 * @p who as their prefix, the name the caller's path has always
 * reported.
 */
template <class T>
TensorI32
convolveFixedPoint(const Tensor3<T> &in, const FilterBankI16 &bank,
                   int stride, int dilation,
                   const simd::KernelTable &kernels, const char *who)
{
    const simd::ConvGeometry g =
        fixedConvGeometry(in.shape(), bank, stride, dilation, who);

    TensorI32 out(g.filters, g.outH, g.outW, scratchAlloc<std::int32_t>());
    ScratchRewind transient;
    TensorI32 padded(in.channels(), g.paddedH, g.paddedW,
                     scratchAlloc<std::int32_t>());
    for (int c = 0; c < in.channels(); ++c) {
        for (int y = 0; y < in.height(); ++y) {
            std::copy_n(&in.at(c, y, 0), in.width(),
                        &padded.at(c, y + g.pad, g.pad));
        }
    }
    if (!kernels.convolveI32(padded.data(), bank.data(), out.data(), g))
        throw std::overflow_error(std::string(who) +
                                  ": accumulator overflow");
    return out;
}

/** Sum of per-value Booth term counts over an int16 plane. */
std::uint64_t
boothTermSum(const std::int16_t *src, std::size_t n)
{
    AlignedVec<std::uint8_t> terms(n, scratchAlloc<std::uint8_t>());
    boothTermsPlane(src, terms.data(), n);
    std::uint64_t sum = 0;
    for (std::uint8_t t : terms)
        sum += t;
    return sum;
}

std::uint64_t
boothTermSum(const std::int32_t *src, std::size_t n)
{
    AlignedVec<std::uint8_t> terms(n, scratchAlloc<std::uint8_t>());
    boothTermsPlane(src, terms.data(), n);
    std::uint64_t sum = 0;
    for (std::uint8_t t : terms)
        sum += t;
    return sum;
}

/**
 * X-axis deltas of an int32 map (row-leading values raw) — the
 * "both axes composed" encoding of the ablation. The int16 xDeltas()
 * in the tensor library cannot hold 17-bit temporal deltas.
 */
TensorI32
xDeltas32(const TensorI32 &t)
{
    TensorI32 out(t.shape(), scratchAlloc<std::int32_t>());
    for (int c = 0; c < t.channels(); ++c) {
        for (int y = 0; y < t.height(); ++y) {
            std::int32_t prev = 0;
            for (int x = 0; x < t.width(); ++x) {
                std::int32_t cur = t.at(c, y, x);
                out.at(c, y, x) = x == 0 ? cur : cur - prev;
                prev = cur;
            }
        }
    }
    return out;
}

} // namespace

TensorI32
convolveTemporalDelta(const TensorI32 &delta, const FilterBankI16 &bank,
                      int stride, int dilation,
                      const simd::KernelTable &kernels)
{
    return convolveFixedPoint(delta, bank, stride, dilation, kernels,
                              "temporal conv");
}

TensorI32
convolveTemporalDelta(const TensorI32 &delta, const FilterBankI16 &bank,
                      int stride, int dilation)
{
    return convolveTemporalDelta(delta, bank, stride, dilation,
                                 simd::kernels());
}

TensorI32
temporalDelta(const TensorI16 &prev, const TensorI16 &cur)
{
    if (prev.shape() != cur.shape())
        throw std::invalid_argument("temporalDelta: shape mismatch");
    TensorI32 out(cur.shape(), scratchAlloc<std::int32_t>());
    const std::int16_t *p = prev.data();
    const std::int16_t *c = cur.data();
    std::int32_t *d = out.data();
    for (std::size_t i = 0; i < out.size(); ++i)
        d[i] = static_cast<std::int32_t>(c[i]) -
               static_cast<std::int32_t>(p[i]);
    return out;
}

TemporalFrameStats &
TemporalFrameStats::operator+=(const TemporalFrameStats &o)
{
    layerCount += o.layerCount;
    anchored += o.anchored;
    exact = exact && o.exact;
    values += o.values;
    rawTerms += o.rawTerms;
    spatialTerms += o.spatialTerms;
    temporalTerms += o.temporalTerms;
    temporalSpatialTerms += o.temporalSpatialTerms;
    codecBits += o.codecBits;
    return *this;
}

TemporalFrameStats
temporalStep(TemporalNetState &state, const NetworkTrace &trace,
             int frameIndex, const TemporalOptions &opts)
{
    if (opts.reanchorInterval < 0)
        throw std::invalid_argument("temporalStep: negative reanchor");
    state.layers.resize(trace.layers.size());
    const TemporalCodec codec(16);

    TemporalFrameStats stats;
    stats.layerCount = static_cast<int>(trace.layers.size());
    for (std::size_t li = 0; li < trace.layers.size(); ++li) {
        const LayerTrace &lt = trace.layers[li];
        TemporalLayerState &st = state.layers[li];
        const std::size_t n = lt.imap.size();
        stats.values += n;

        const std::uint64_t rawTerms = boothTermSum(lt.imap.data(), n);
        const TensorI16 spatial = xDeltas(lt.imap);
        const std::uint64_t spatialTerms =
            boothTermSum(spatial.data(), n);
        stats.rawTerms += rawTerms;
        stats.spatialTerms += spatialTerms;

        // A format or geometry change invalidates the reference: the
        // previous frame's quantized values live in a different
        // fixed-point grid, so "o_{t-1} + conv(Δ)" would mix scales.
        const bool anchor =
            !st.valid || st.prevImap.shape() != lt.imap.shape() ||
            st.prevFracBits != lt.imapFracBits ||
            (opts.reanchorInterval > 0 &&
             frameIndex % opts.reanchorInterval == 0);

        TensorI32 omap;
        if (anchor) {
            omap = convolveFixedPoint(lt.imap, lt.weights, lt.spec.stride,
                                      lt.spec.dilation, simd::kernels(),
                                      "conv");
            ++stats.anchored;
            stats.temporalTerms += rawTerms;
            stats.temporalSpatialTerms += spatialTerms;
            stats.codecBits += n * 16;
        } else {
            const TensorI32 delta = temporalDelta(st.prevImap, lt.imap);
            const TensorI32 deltaOut = convolveTemporalDelta(
                delta, lt.weights, lt.spec.stride, lt.spec.dilation);
            if (deltaOut.shape() != st.prevOmap.shape())
                throw std::logic_error(
                    "temporalStep: delta output geometry diverged");
            omap = TensorI32(deltaOut.shape(),
                             scratchAlloc<std::int32_t>());
            const std::int32_t *po = st.prevOmap.data();
            const std::int32_t *dl = deltaOut.data();
            std::int32_t *oo = omap.data();
            for (std::size_t i = 0; i < omap.size(); ++i)
                oo[i] = clampToI32(static_cast<std::int64_t>(po[i]) +
                                       dl[i],
                                   "temporal conv: accumulator overflow");
            stats.temporalTerms += boothTermSum(delta.data(), n);
            const TensorI32 both = xDeltas32(delta);
            stats.temporalSpatialTerms += boothTermSum(both.data(), n);
            stats.codecBits += codec.encodedBits(st.prevImap, lt.imap);
        }

        if (opts.verifyAgainstOracle) {
            const TensorI32 oracle = convolveDirect(
                lt.imap, lt.weights, lt.spec.stride, lt.spec.dilation);
            if (!(omap == oracle)) {
                stats.exact = false;
                throw std::runtime_error(
                    "temporalStep: layer " + lt.spec.name +
                    " reconstruction diverged from the per-frame "
                    "oracle at frame " + std::to_string(frameIndex));
            }
        }

        // Copy-assign (not move): cross-frame state must stay on the
        // destination's resource. omap may be arena-backed under an
        // ArenaScope, and a move would adopt storage the next rewind()
        // recycles (common/aligned.hh propagation contract).
        st.prevImap = lt.imap;
        st.prevOmap = omap;
        st.prevFracBits = lt.imapFracBits;
        st.valid = true;
    }
    return stats;
}

} // namespace diffy
