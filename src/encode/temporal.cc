#include "encode/temporal.hh"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/aligned.hh"
#include "common/simd.hh"
#include "encode/bitstream.hh"

namespace diffy
{

namespace
{

DecodeResult
truncatedAt(const BitReader &br, std::size_t values_decoded,
            const std::string &what)
{
    DecodeResult r;
    r.status = DecodeStatus::Truncated;
    r.message = "stream ended inside " + what;
    r.errorBit = br.bitPosition();
    r.valuesDecoded = values_decoded;
    return r;
}

/**
 * BadHeader diagnostic assembly, hoisted out of the per-group decode
 * loop (diffy-lint R9); byte-identical to the old in-loop text.
 */
std::string
badHeaderMessage(int bits, int max_bits)
{
    return "temporal group declares " + std::to_string(bits) +
           " bits (legal max " + std::to_string(max_bits) + ")";
}

} // namespace

TemporalCodec::TemporalCodec(int group_size) : groupSize_(group_size)
{
    if (group_size < 1)
        throw std::invalid_argument("TemporalCodec: bad group size");
}

std::string
TemporalCodec::name() const
{
    return "TemporalD" + std::to_string(groupSize_);
}

EncodedTensor
TemporalCodec::encode(const TensorI16 &prev, const TensorI16 &cur) const
{
    if (prev.shape() != cur.shape())
        throw std::invalid_argument(
            "TemporalCodec: reference/current shape mismatch");
    BitWriter bw(scratchAlloc<std::uint8_t>());
    std::vector<BitRange> headers;
    const std::int16_t *p = prev.data();
    const std::int16_t *c = cur.data();
    const std::size_t n = cur.size();
    const auto group = static_cast<std::size_t>(groupSize_);
    headers.reserve((n + group - 1) / group);
    AlignedVec<std::int32_t> deltas(group, scratchAlloc<std::int32_t>());
    const simd::KernelTable &kt = simd::kernels();
    for (std::size_t start = 0; start < n; start += group) {
        const std::size_t len = std::min(group, n - start);
        // One dispatched pass computes the deltas and the group
        // header width (max bitsNeeded) together (common/simd.hh).
        const int bits =
            kt.deltaBits16(p + start, c + start, deltas.data(), len);
        headers.push_back({bw.bitCount(), 5});
        bw.write(static_cast<std::uint32_t>(bits - 1), 5);
        for (std::size_t i = 0; i < len; ++i)
            bw.writeSigned(deltas[i], bits);
    }
    return {cur.shape(), bw.bitCount(), std::move(bw).bytes(),
            std::move(headers)};
}

std::size_t
TemporalCodec::encodedBits(const TensorI16 &prev, const TensorI16 &cur) const
{
    if (prev.shape() != cur.shape())
        throw std::invalid_argument(
            "TemporalCodec: reference/current shape mismatch");
    const std::size_t n = cur.size();
    const auto group = static_cast<std::size_t>(groupSize_);
    AlignedVec<std::int32_t> deltas(group, scratchAlloc<std::int32_t>());
    const simd::KernelTable &kt = simd::kernels();
    std::size_t total = 0;
    for (std::size_t start = 0; start < n; start += group) {
        const std::size_t len = std::min(group, n - start);
        total += 5 + len * static_cast<std::size_t>(kt.deltaBits16(
                               prev.data() + start, cur.data() + start,
                               deltas.data(), len));
    }
    return total;
}

DecodeResult
TemporalCodec::tryDecode(const TensorI16 &prev,
                         const EncodedTensor &enc) const
{
    DecodeResult r;
    if (enc.shape != prev.shape()) {
        // The reference frame *defines* the stream geometry; a
        // disagreeing declared shape means the stream belongs to a
        // different anchor epoch and must not be trusted.
        r.status = DecodeStatus::BadShape;
        r.message = "temporal stream shape disagrees with its "
                    "reference frame";
        return r;
    }
    const std::size_t n = prev.size();
    TensorI16 t(prev.shape(), scratchAlloc<std::int16_t>());
    const std::int16_t *p = prev.data();
    std::int16_t *out = t.data();
    BitReader br(enc.bytes);
    const auto group = static_cast<std::size_t>(groupSize_);
    AlignedVec<std::int32_t> dbuf(group, scratchAlloc<std::int32_t>());
    const simd::KernelTable &kt = simd::kernels();
    for (std::size_t start = 0; start < n; start += group) {
        const std::size_t len = std::min(group, n - start);
        std::uint32_t hdr = 0;
        if (!br.tryRead(5, hdr))
            return truncatedAt(br, start, "a temporal group header");
        const int bits = static_cast<int>(hdr) + 1;
        if (bits > kMaxFieldBits) {
            r.status = DecodeStatus::BadHeader;
            r.message = badHeaderMessage(bits, kMaxFieldBits);
            r.errorBit = br.bitPosition() - 5;
            r.valuesDecoded = start;
            return r;
        }
        for (std::size_t i = 0; i < len; ++i) {
            if (!br.tryReadSigned(bits, dbuf[i]))
                return truncatedAt(br, start + i, "a temporal field");
        }
        // Fields fit kMaxFieldBits (17) signed bits, within the
        // 18-bit delta contract of the batched saturating add.
        kt.addSat16(p + start, dbuf.data(), out + start, len);
    }
    r.tensor = std::move(t);
    r.valuesDecoded = n;
    return r;
}

TensorI16
TemporalCodec::decode(const TensorI16 &prev, const EncodedTensor &enc) const
{
    DecodeResult r = tryDecode(prev, enc);
    if (!r.ok())
        throw DecodeError(r.status, name() + " decode failed: " + r.message);
    return std::move(r.tensor);
}

double
TemporalCodec::bitsPerValue(const TensorI16 &prev, const TensorI16 &cur) const
{
    if (cur.empty())
        return 0.0;
    return static_cast<double>(encodedBits(prev, cur)) /
           static_cast<double>(cur.size());
}

} // namespace diffy
