/**
 * @file
 * Temporal-delta activation codec (DESIGN.md §13).
 *
 * The spatial codecs (schemes.hh) exploit value similarity *within* a
 * frame; across consecutive video frames the same redundancy exists
 * in time (DeltaCNN / EVA², see PAPERS.md). This codec encodes frame
 * t's activations relative to frame t-1's:
 *
 *     d(c,y,x) = a_t(c,y,x) - a_{t-1}(c,y,x)
 *
 * packed with the DeltaD group scheme — groups of g deltas, a 5-bit
 * width header per group (deltas of int16 data need up to 17 bits).
 * The reference frame is *context*, not part of the stream: both
 * sides of a serving connection already hold frame t-1, so the wire
 * carries only the temporal innovation.
 *
 * Decoding is hardened like every codec here: tryDecode() accepts any
 * byte sequence and returns a valid tensor or a structured error —
 * a stream whose declared shape disagrees with the reference frame is
 * a BadShape, a group header past 17 bits a BadHeader, a short stream
 * a Truncated. The serving path classifies these through the sweep
 * failure taxonomy (runtime/resilience.hh) on a per-stream basis.
 */

#ifndef DIFFY_ENCODE_TEMPORAL_HH
#define DIFFY_ENCODE_TEMPORAL_HH

#include <string>

#include "encode/schemes.hh"
#include "tensor/tensor.hh"

namespace diffy
{

/** Group-coded temporal (frame-to-frame) delta codec. */
class TemporalCodec
{
  public:
    /** Widest legal field: 17 bits covers any int16 - int16 delta. */
    static constexpr int kMaxFieldBits = 17;

    /** @throws std::invalid_argument on a non-positive group size. */
    explicit TemporalCodec(int group_size);

    /** "TemporalD<g>", mirroring the spatial codec naming. */
    std::string name() const;

    int groupSize() const { return groupSize_; }

    /**
     * Encode @p cur relative to @p prev. Shapes must match exactly —
     * a stream is re-anchored (a full keyframe sent out of band)
     * whenever its geometry changes, never silently re-shaped.
     * @throws std::invalid_argument on a shape mismatch.
     */
    EncodedTensor encode(const TensorI16 &prev, const TensorI16 &cur) const;

    /**
     * Hardened decode of @p enc against reference frame @p prev. Any
     * byte sequence yields a valid tensor or a structured error;
     * reconstruction accumulates in 64-bit and saturates to int16, so
     * hostile deltas cannot overflow.
     */
    DecodeResult tryDecode(const TensorI16 &prev,
                           const EncodedTensor &enc) const;

    /** Decode an encode() result; throws DecodeError on error. */
    TensorI16 decode(const TensorI16 &prev, const EncodedTensor &enc) const;

    /**
     * Exact size in bits of encode(@p prev, @p cur), metadata
     * included, counted without building the stream.
     * @throws std::invalid_argument on a shape mismatch.
     */
    std::size_t encodedBits(const TensorI16 &prev,
                            const TensorI16 &cur) const;

    /** Mean bits per value of cur-given-prev, metadata included. */
    double bitsPerValue(const TensorI16 &prev, const TensorI16 &cur) const;

  private:
    int groupSize_;
};

} // namespace diffy

#endif // DIFFY_ENCODE_TEMPORAL_HH
