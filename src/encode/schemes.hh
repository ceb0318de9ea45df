/**
 * @file
 * Activation compression codecs (paper Section II-E, Figs 5 and 14).
 *
 * Every scheme is implemented as a real encoder/decoder pair over a
 * bitstream, and losslessness is verified by round-trip tests. Sizes
 * (metadata included) come from encodedBits(), which counts the
 * stream encode() would emit without building it; encode() stays the
 * bit-serial reference the size path is fuzzed against:
 *
 *  - NoCompression : 16b per value.
 *  - RLEz          : (4b zero-run, 16b value) pairs; runs longer than
 *                    15 continue through explicit zero entries.
 *  - RLE           : (4b run-length, 16b value) pairs over repeated
 *                    values (run length 1..16 per entry).
 *  - Profiled      : fixed per-layer precision p; values saturate to
 *                    p bits (lossless whenever p covers the layer,
 *                    which is how the profiler picks p).
 *  - RawD<g>       : dynamic per-group precision, groups of g values,
 *                    4b width header per group (Dynamic Stripes).
 *  - DeltaD<g>     : RawD over the X-axis delta stream (row-leading
 *                    values raw). Deltas of int16 data need up to 17
 *                    bits, so the group header is 5 bits — one more
 *                    than the paper's raw-value header — keeping the
 *                    codec lossless for arbitrary inputs.
 *
 * Decoding is hardened: tryDecode() accepts *any* byte sequence and
 * returns either a valid tensor or a structured error (DecodeResult)
 * — never a crash, hang, or out-of-bounds read. Encoders additionally
 * record where their metadata fields (group-precision headers, run
 * lengths) sit in the stream, so the fault-injection subsystem
 * (src/fault) can target header bits and payload bits separately.
 */

#ifndef DIFFY_ENCODE_SCHEMES_HH
#define DIFFY_ENCODE_SCHEMES_HH

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "tensor/tensor.hh"

namespace diffy
{

/** Bit interval [first, first + count) inside an encoded stream. */
struct BitRange
{
    std::size_t first = 0;
    std::size_t count = 0;

    bool contains(std::size_t bit) const
    {
        return bit >= first && bit < first + count;
    }

    bool operator==(const BitRange &o) const = default;
};

/** Encoded form of one tensor. */
struct EncodedTensor
{
    Shape3 shape;
    std::size_t bits = 0; ///< exact payload+metadata size in bits
    /// Payload bytes. A ByteVec so encoders can move an arena-backed
    /// BitWriter buffer in without a heap copy (common/pool.hh).
    ByteVec bytes;
    /**
     * Metadata fields of the stream (group-precision headers, RLE run
     * lengths), in stream order. Empty for schemes without metadata.
     * Fault injection uses these to separate header from payload bits.
     */
    std::vector<BitRange> headerBits;

    /**
     * Integrity footer (see sealEncoded()): CRC-32C of the payload
     * bytes plus the bit length at seal time. Not part of the faultable
     * stream — fault injection targets [0, bits), so the footer plays
     * the role of clean out-of-band framing, exactly like the CRC at
     * the end of an on-disk block. Unsealed streams (sealed == false)
     * skip verification entirely.
     */
    bool sealed = false;
    std::uint32_t payloadCrc = 0;
    std::uint64_t payloadBits = 0;
};

/**
 * Record the integrity footer: CRC-32C over the payload bytes and the
 * current bit count. Call after encode() and before the stream is
 * stored or transported; verifyEncoded()/tryDecodeVerified() then
 * detect any later payload corruption.
 */
void sealEncoded(EncodedTensor &enc);

/**
 * True when @p enc passes its integrity footer: bit length unchanged
 * and payload CRC matching. Unsealed streams vacuously pass (there is
 * nothing to check against).
 */
bool verifyEncoded(const EncodedTensor &enc);

/** Outcome classes of a hardened decode. */
enum class DecodeStatus
{
    Ok,          ///< stream decoded to a complete tensor
    BadShape,    ///< negative/overflowing dims or over the decode cap
    Truncated,   ///< stream ended before the tensor was complete
    BadHeader,   ///< a declared group precision exceeds the legal width
    BadChecksum  ///< integrity footer mismatch (detected corruption)
};

std::string to_string(DecodeStatus s);

/**
 * Structured decode failure: thrown by ActivationCodec::decode() and
 * the serialized-stream loaders, carrying the DecodeStatus so callers
 * (the sweep scheduler's failure taxonomy above all) can classify the
 * error without parsing the message.
 */
class DecodeError : public std::runtime_error
{
  public:
    DecodeError(DecodeStatus status, const std::string &message)
        : std::runtime_error(message), status_(status)
    {}

    DecodeStatus status() const { return status_; }

  private:
    DecodeStatus status_;
};

/**
 * Result of a hardened decode: either a valid tensor (ok()) or a
 * structured error with diagnostics. The tensor is only meaningful
 * when ok() — on error it holds whatever prefix decoded cleanly,
 * which the fault-propagation analyzer inspects but ordinary callers
 * should discard.
 */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::Ok;
    TensorI16 tensor;
    /** Human-readable diagnostic; empty when ok(). */
    std::string message;
    /** Bit position of the first violation (errors only). */
    std::size_t errorBit = 0;
    /** Values written before the error (== volume when ok()). */
    std::size_t valuesDecoded = 0;

    bool ok() const { return status == DecodeStatus::Ok; }
};

/**
 * Upper bound on the element count tryDecode() will allocate for.
 * A hostile EncodedTensor can declare any shape; this cap turns an
 * attempted multi-GB allocation into a clean BadShape error.
 */
inline constexpr std::size_t kMaxDecodeElements = std::size_t{1} << 28;

/** Interface of an activation codec. */
class ActivationCodec
{
  public:
    virtual ~ActivationCodec() = default;

    virtual std::string name() const = 0;

    /** Encode a tensor; the result records its exact bit count. */
    virtual EncodedTensor encode(const TensorI16 &t) const = 0;

    /**
     * Exact size in bits of encode(@p t), metadata included, counted
     * without building the stream: equal to encode(t).bits.
     */
    virtual std::size_t encodedBits(const TensorI16 &t) const = 0;

    /**
     * Hardened decode: any byte sequence yields a valid tensor or a
     * clean structured error — never undefined behaviour.
     */
    virtual DecodeResult tryDecode(const EncodedTensor &enc) const = 0;

    /**
     * Self-verifying decode: when @p enc is sealed, the integrity
     * footer is checked first and a mismatch returns BadChecksum —
     * corruption is *detected* before the prefix-sum reconstruction
     * can smear it into a plausible-looking wrong tensor. Unsealed
     * streams fall through to tryDecode() unchanged.
     */
    DecodeResult tryDecodeVerified(const EncodedTensor &enc) const;

    /** Decode an encode() result; throws DecodeError on error. */
    TensorI16 decode(const EncodedTensor &enc) const;

    /** Mean bits per value, metadata included. */
    double bitsPerValue(const TensorI16 &t) const;
};

/** 16 bits per value. */
std::unique_ptr<ActivationCodec> makeNoCompressionCodec();

/** Run-length over zeros. */
std::unique_ptr<ActivationCodec> makeRlezCodec();

/** Run-length over repeated values. */
std::unique_ptr<ActivationCodec> makeRleCodec();

/** Fixed per-layer precision (profile-derived). */
std::unique_ptr<ActivationCodec> makeProfiledCodec(int precision_bits);

/** Dynamic per-group precision over raw values. */
std::unique_ptr<ActivationCodec> makeRawDCodec(int group_size);

/**
 * Dynamic per-group precision over X-axis deltas.
 *
 * @param reanchor_interval Error-containment knob: when > 0, every
 *        K-th value of a row (x % K == 0) is stored as an absolute
 *        value rather than a delta. A corrupted delta then propagates
 *        only to the next anchor instead of across the whole row,
 *        trading a small footprint increase for a bounded blast
 *        radius. 0 (the default, the paper's scheme) anchors only at
 *        row heads.
 */
std::unique_ptr<ActivationCodec> makeDeltaDCodec(int group_size,
                                                 int reanchor_interval = 0);

/**
 * Codec for a Compression enum value. Profiled requires the layer's
 * profiled precision; it is ignored by the other schemes. Ideal maps
 * to NoCompression (its effect is modeled as infinite bandwidth by
 * the memory system, not as a smaller stream).
 */
std::unique_ptr<ActivationCodec> makeCodec(Compression scheme,
                                           int profiled_bits = 16);

/**
 * Serialized wire form of an EncodedTensor (DESIGN.md §12):
 *
 *     u32 magic  u32 c  u32 h  u32 w  u64 bits
 *     u32 header_count  (u64 first, u64 count) x header_count
 *     u64 byte_count    payload bytes
 *     u32 crc32c(payload bytes)  u64 bits   <- integrity footer
 *
 * The footer repeats the bit length so a truncated payload and a
 * corrupted payload are distinguishable from each other. saveEncoded()
 * seals @p enc's footer fields as a side effect of computing them.
 */
void saveEncoded(EncodedTensor &enc, std::ostream &os);

/**
 * Load a saveEncoded() stream. The returned tensor is sealed; its
 * footer has been validated against the payload actually read.
 * @throws DecodeError — Truncated on short reads or a bad magic,
 *         BadChecksum on a footer mismatch.
 */
EncodedTensor loadEncoded(std::istream &is);

} // namespace diffy

#endif // DIFFY_ENCODE_SCHEMES_HH
