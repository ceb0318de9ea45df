#include "encode/schemes.hh"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/bitops.hh"
#include "common/fixed_point.hh"
#include "common/simd.hh"
#include "encode/bitstream.hh"

namespace diffy
{

std::string
to_string(DecodeStatus s)
{
    switch (s) {
      case DecodeStatus::Ok:
        return "Ok";
      case DecodeStatus::BadShape:
        return "BadShape";
      case DecodeStatus::Truncated:
        return "Truncated";
      case DecodeStatus::BadHeader:
        return "BadHeader";
      case DecodeStatus::BadChecksum:
        return "BadChecksum";
    }
    return "?";
}

void
sealEncoded(EncodedTensor &enc)
{
    enc.payloadCrc = crc32c(enc.bytes.data(), enc.bytes.size());
    enc.payloadBits = enc.bits;
    enc.sealed = true;
}

bool
verifyEncoded(const EncodedTensor &enc)
{
    if (!enc.sealed)
        return true;
    return enc.payloadBits == enc.bits &&
           enc.payloadCrc == crc32c(enc.bytes.data(), enc.bytes.size());
}

DecodeResult
ActivationCodec::tryDecodeVerified(const EncodedTensor &enc) const
{
    if (!verifyEncoded(enc)) {
        DecodeResult r;
        r.status = DecodeStatus::BadChecksum;
        r.message = name() + ": payload fails its integrity footer "
                             "(CRC-32C or bit-length mismatch)";
        return r;
    }
    return tryDecode(enc);
}

TensorI16
ActivationCodec::decode(const EncodedTensor &enc) const
{
    DecodeResult r = tryDecodeVerified(enc);
    if (!r.ok())
        throw DecodeError(r.status,
                          name() + " decode failed: " + r.message);
    return std::move(r.tensor);
}

double
ActivationCodec::bitsPerValue(const TensorI16 &t) const
{
    if (t.empty())
        return 0.0;
    return static_cast<double>(encodedBits(t)) /
           static_cast<double>(t.size());
}

namespace
{

/**
 * Validate a decode target shape: every dimension nonnegative and the
 * volume within kMaxDecodeElements (checked multiply-by-multiply so a
 * hostile shape cannot overflow the size_t product either). On
 * failure @p out carries a complete BadShape result.
 */
bool
checkShape(const Shape3 &s, DecodeResult &out)
{
    auto fail = [&](const std::string &msg) {
        out.status = DecodeStatus::BadShape;
        out.message = msg;
        return false;
    };
    if (s.c < 0 || s.h < 0 || s.w < 0)
        return fail("negative dimension in shape");
    std::size_t vol = static_cast<std::size_t>(s.c);
    for (int d : {s.h, s.w}) {
        if (d > 0 && vol > kMaxDecodeElements / static_cast<std::size_t>(d))
            return fail("shape volume exceeds decode cap");
        vol *= static_cast<std::size_t>(d);
    }
    if (vol > kMaxDecodeElements)
        return fail("shape volume exceeds decode cap");
    return true;
}

/**
 * Assemble the BadHeader diagnostic ("<codec> group declares N bits
 * (legal max M)") outside the decode loops, keeping string building
 * out of the per-group path (diffy-lint R9).
 */
std::string
badHeaderMessage(const char *codec, int bits, int max_bits)
{
    return std::string(codec) + " group declares " +
           std::to_string(bits) + " bits (legal max " +
           std::to_string(max_bits) + ")";
}

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

/** 16 bits per value, no metadata. */
class NoCompressionCodec : public ActivationCodec
{
  public:
    std::string name() const override { return "NoCompression"; }

    EncodedTensor
    encode(const TensorI16 &t) const override
    {
        BitWriter bw(scratchAlloc<std::uint8_t>());
        const std::int16_t *data = t.data();
        for (std::size_t i = 0; i < t.size(); ++i)
            bw.writeSigned(data[i], 16);
        return {t.shape(), bw.bitCount(), std::move(bw).bytes(), {}};
    }

    std::size_t
    encodedBits(const TensorI16 &t) const override
    {
        return 16 * t.size();
    }

    DecodeResult
    tryDecode(const EncodedTensor &enc) const override
    {
        DecodeResult r;
        if (!checkShape(enc.shape, r))
            return r;
        TensorI16 t(enc.shape);
        BitReader br(enc.bytes);
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::int32_t v = 0;
            if (!br.tryReadSigned(16, v))
                return truncatedAt(br, i, "a 16b value");
            t.data()[i] = static_cast<std::int16_t>(v);
        }
        r.tensor = std::move(t);
        r.valuesDecoded = r.tensor.size();
        return r;
    }
};

/** Bits of one run-length entry: a 4b run field and a 16b value. */
constexpr std::size_t kRunEntryBits = 4 + 16;

/**
 * Zero run-length coding: entries of (4b zero-run, 16b value). A run
 * of more than 15 zeros is carried by entries whose value is itself
 * zero. The trailing run is carried by a final entry pair as needed.
 */
class RlezCodec : public ActivationCodec
{
  public:
    std::string name() const override { return "RLEz"; }

    /** Entry count of encode(t): a pass mirroring its emit loop. */
    static std::size_t
    entryCount(const TensorI16 &t)
    {
        const std::int16_t *data = t.data();
        std::size_t entries = 0;
        for (std::size_t i = 0; i < t.size();) {
            int run = 0;
            while (i < t.size() && data[i] == 0 && run < 15) {
                ++run;
                ++i;
            }
            ++entries;
            if (i < t.size())
                ++i;
        }
        return entries;
    }

    std::size_t
    encodedBits(const TensorI16 &t) const override
    {
        return kRunEntryBits * entryCount(t);
    }

    EncodedTensor
    encode(const TensorI16 &t) const override
    {
        const std::int16_t *data = t.data();
        BitWriter bw(scratchAlloc<std::uint8_t>());
        std::vector<BitRange> headers;
        // Sized exactly, so the list never grows mid-stream.
        headers.reserve(entryCount(t));
        std::size_t i = 0;
        while (i < t.size()) {
            int run = 0;
            while (i < t.size() && data[i] == 0 && run < 15) {
                ++run;
                ++i;
            }
            headers.push_back({bw.bitCount(), 4});
            if (i < t.size()) {
                bw.write(static_cast<std::uint32_t>(run), 4);
                bw.writeSigned(data[i], 16);
                ++i;
            } else {
                // Trailing zeros: emit them as an explicit zero value.
                bw.write(static_cast<std::uint32_t>(run - 1), 4);
                bw.writeSigned(0, 16);
            }
        }
        return {t.shape(), bw.bitCount(), std::move(bw).bytes(),
                std::move(headers)};
    }

    DecodeResult
    tryDecode(const EncodedTensor &enc) const override
    {
        DecodeResult r;
        if (!checkShape(enc.shape, r))
            return r;
        TensorI16 t(enc.shape);
        BitReader br(enc.bytes);
        std::size_t i = 0;
        while (i < t.size()) {
            std::uint32_t run = 0;
            std::int32_t value = 0;
            if (!br.tryRead(4, run))
                return truncatedAt(br, i, "an RLEz run header");
            if (!br.tryReadSigned(16, value))
                return truncatedAt(br, i, "an RLEz value");
            for (std::uint32_t z = 0; z < run && i < t.size(); ++z)
                t.data()[i++] = 0;
            if (i < t.size())
                t.data()[i++] = static_cast<std::int16_t>(value);
        }
        r.tensor = std::move(t);
        r.valuesDecoded = r.tensor.size();
        return r;
    }
};

/** Repeat run-length coding: entries of (4b run-1, 16b value). */
class RleCodec : public ActivationCodec
{
  public:
    std::string name() const override { return "RLE"; }

    /** Entry count of encode(t): a pass mirroring its emit loop. */
    static std::size_t
    entryCount(const TensorI16 &t)
    {
        const std::int16_t *data = t.data();
        std::size_t entries = 0;
        for (std::size_t i = 0; i < t.size();) {
            int run = 1;
            while (i + run < t.size() && data[i + run] == data[i] &&
                   run < 16) {
                ++run;
            }
            ++entries;
            i += static_cast<std::size_t>(run);
        }
        return entries;
    }

    std::size_t
    encodedBits(const TensorI16 &t) const override
    {
        return kRunEntryBits * entryCount(t);
    }

    EncodedTensor
    encode(const TensorI16 &t) const override
    {
        const std::int16_t *data = t.data();
        BitWriter bw(scratchAlloc<std::uint8_t>());
        std::vector<BitRange> headers;
        headers.reserve(entryCount(t));
        std::size_t i = 0;
        while (i < t.size()) {
            std::int16_t value = data[i];
            int run = 1;
            while (i + run < t.size() && data[i + run] == value &&
                   run < 16) {
                ++run;
            }
            headers.push_back({bw.bitCount(), 4});
            bw.write(static_cast<std::uint32_t>(run - 1), 4);
            bw.writeSigned(value, 16);
            i += static_cast<std::size_t>(run);
        }
        return {t.shape(), bw.bitCount(), std::move(bw).bytes(),
                std::move(headers)};
    }

    DecodeResult
    tryDecode(const EncodedTensor &enc) const override
    {
        DecodeResult r;
        if (!checkShape(enc.shape, r))
            return r;
        TensorI16 t(enc.shape);
        BitReader br(enc.bytes);
        std::size_t i = 0;
        while (i < t.size()) {
            std::uint32_t run = 0;
            std::int32_t value = 0;
            if (!br.tryRead(4, run))
                return truncatedAt(br, i, "an RLE run header");
            if (!br.tryReadSigned(16, value))
                return truncatedAt(br, i, "an RLE value");
            for (std::uint32_t k = 0; k <= run && i < t.size(); ++k)
                t.data()[i++] = static_cast<std::int16_t>(value);
        }
        r.tensor = std::move(t);
        r.valuesDecoded = r.tensor.size();
        return r;
    }
};

/** Fixed-precision coding with saturation. */
class ProfiledCodec : public ActivationCodec
{
  public:
    explicit ProfiledCodec(int precision) : precision_(precision)
    {
        if (precision < 1 || precision > 16)
            throw std::invalid_argument("ProfiledCodec: bad precision");
    }

    std::string
    name() const override
    {
        return "Profiled" + std::to_string(precision_);
    }

    EncodedTensor
    encode(const TensorI16 &t) const override
    {
        const std::int32_t lo = -(1 << (precision_ - 1));
        const std::int32_t hi = (1 << (precision_ - 1)) - 1;
        BitWriter bw(scratchAlloc<std::uint8_t>());
        const std::int16_t *data = t.data();
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::int32_t v = data[i];
            v = v < lo ? lo : (v > hi ? hi : v);
            bw.writeSigned(v, precision_);
        }
        return {t.shape(), bw.bitCount(), std::move(bw).bytes(), {}};
    }

    std::size_t
    encodedBits(const TensorI16 &t) const override
    {
        return static_cast<std::size_t>(precision_) * t.size();
    }

    DecodeResult
    tryDecode(const EncodedTensor &enc) const override
    {
        DecodeResult r;
        if (!checkShape(enc.shape, r))
            return r;
        TensorI16 t(enc.shape);
        BitReader br(enc.bytes);
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::int32_t v = 0;
            if (!br.tryReadSigned(precision_, v))
                return truncatedAt(br, i, "a fixed-precision value");
            t.data()[i] = static_cast<std::int16_t>(v);
        }
        r.tensor = std::move(t);
        r.valuesDecoded = r.tensor.size();
        return r;
    }

  private:
    int precision_;
};

/** Dynamic per-group precision over raw values (4b group header). */
class RawDCodec : public ActivationCodec
{
  public:
    explicit RawDCodec(int group_size) : groupSize_(group_size)
    {
        if (group_size < 1)
            throw std::invalid_argument("RawDCodec: bad group size");
    }

    std::string
    name() const override
    {
        return "RawD" + std::to_string(groupSize_);
    }

    EncodedTensor
    encode(const TensorI16 &t) const override
    {
        const std::size_t group = static_cast<std::size_t>(groupSize_);
        BitWriter bw(scratchAlloc<std::uint8_t>());
        std::vector<BitRange> headers;
        headers.reserve((t.size() + group - 1) / group);
        const std::int16_t *data = t.data();
        for (std::size_t start = 0; start < t.size();
             start += static_cast<std::size_t>(groupSize_)) {
            std::size_t len = std::min(
                static_cast<std::size_t>(groupSize_), t.size() - start);
            int bits = groupBitsNeeded(data + start, len);
            headers.push_back({bw.bitCount(), 4});
            bw.write(static_cast<std::uint32_t>(bits - 1), 4);
            for (std::size_t i = 0; i < len; ++i)
                bw.writeSigned(data[start + i], bits);
        }
        return {t.shape(), bw.bitCount(), std::move(bw).bytes(),
                std::move(headers)};
    }

    std::size_t
    encodedBits(const TensorI16 &t) const override
    {
        const auto group = static_cast<std::size_t>(groupSize_);
        const std::int16_t *data = t.data();
        std::size_t total = 0;
        for (std::size_t start = 0; start < t.size(); start += group) {
            const std::size_t len = std::min(group, t.size() - start);
            total += 4 + len * static_cast<std::size_t>(
                                   groupBitsNeeded(data + start, len));
        }
        return total;
    }

    DecodeResult
    tryDecode(const EncodedTensor &enc) const override
    {
        DecodeResult r;
        if (!checkShape(enc.shape, r))
            return r;
        TensorI16 t(enc.shape);
        BitReader br(enc.bytes);
        for (std::size_t start = 0; start < t.size();
             start += static_cast<std::size_t>(groupSize_)) {
            std::size_t len = std::min(
                static_cast<std::size_t>(groupSize_), t.size() - start);
            std::uint32_t hdr = 0;
            if (!br.tryRead(4, hdr))
                return truncatedAt(br, start, "a RawD group header");
            // hdr + 1 is 1..16: every 4-bit header is a legal width.
            int bits = static_cast<int>(hdr) + 1;
            for (std::size_t i = 0; i < len; ++i) {
                std::int32_t v = 0;
                if (!br.tryReadSigned(bits, v))
                    return truncatedAt(br, start + i, "a RawD value");
                t.data()[start + i] = static_cast<std::int16_t>(v);
            }
        }
        r.tensor = std::move(t);
        r.valuesDecoded = r.tensor.size();
        return r;
    }

  private:
    int groupSize_;
};

/**
 * Dynamic per-group precision over the X-axis delta stream. Rows lead
 * with a raw value; deltas span up to 17 bits so the group header is
 * 5 bits (see file comment). A positive reanchor interval K stores
 * every K-th value of a row as an absolute value, bounding how far a
 * corrupted delta can propagate (the containment knob studied by
 * bench/abl_faults).
 */
class DeltaDCodec : public ActivationCodec
{
  public:
    /** Widest legal field: 17 bits covers any int16 delta. */
    static constexpr int kMaxFieldBits = 17;

    DeltaDCodec(int group_size, int reanchor_interval)
        : groupSize_(group_size), reanchor_(reanchor_interval)
    {
        if (group_size < 1)
            throw std::invalid_argument("DeltaDCodec: bad group size");
        if (reanchor_interval < 0)
            throw std::invalid_argument(
                "DeltaDCodec: bad reanchor interval");
    }

    std::string
    name() const override
    {
        std::string n = "DeltaD" + std::to_string(groupSize_);
        if (reanchor_ > 0)
            n += ".A" + std::to_string(reanchor_);
        return n;
    }

    bool
    isAnchor(int x) const
    {
        return x == 0 || (reanchor_ > 0 && x % reanchor_ == 0);
    }

    /**
     * The coded field stream: row-major X-axis deltas within each
     * (channel, row); anchors carry the raw value.
     */
    AlignedVec<std::int32_t>
    deltaStream(const TensorI16 &t) const
    {
        AlignedVec<std::int32_t> stream(t.size(),
                                        scratchAlloc<std::int32_t>());
        const std::int16_t *data = t.data();
        const auto w = static_cast<std::size_t>(t.width());
        for (std::size_t row = 0; row < t.size(); row += w) {
            for (std::size_t x = 0; x < w; ++x) {
                const std::int32_t cur = data[row + x];
                stream[row + x] = isAnchor(static_cast<int>(x))
                                      ? cur
                                      : cur - data[row + x - 1];
            }
        }
        return stream;
    }

    std::size_t
    encodedBits(const TensorI16 &t) const override
    {
        const AlignedVec<std::int32_t> stream = deltaStream(t);
        const auto group = static_cast<std::size_t>(groupSize_);
        const simd::KernelTable &kt = simd::kernels();
        std::size_t total = 0;
        for (std::size_t start = 0; start < stream.size();
             start += group) {
            const std::size_t len = std::min(group, stream.size() - start);
            total += 5 + len * static_cast<std::size_t>(kt.groupBits32(
                                   stream.data() + start, len));
        }
        return total;
    }

    EncodedTensor
    encode(const TensorI16 &t) const override
    {
        const AlignedVec<std::int32_t> stream = deltaStream(t);
        const std::size_t group = static_cast<std::size_t>(groupSize_);
        BitWriter bw(scratchAlloc<std::uint8_t>());
        std::vector<BitRange> headers;
        headers.reserve((stream.size() + group - 1) / group);
        const simd::KernelTable &kt = simd::kernels();
        for (std::size_t start = 0; start < stream.size();
             start += static_cast<std::size_t>(groupSize_)) {
            std::size_t len = std::min(
                static_cast<std::size_t>(groupSize_),
                stream.size() - start);
            // Group header width via the dispatched OR-fold reduction
            // (common/simd.hh); equals max(1, max bitsNeeded).
            const int bits =
                kt.groupBits32(stream.data() + start, len);
            headers.push_back({bw.bitCount(), 5});
            bw.write(static_cast<std::uint32_t>(bits - 1), 5);
            for (std::size_t i = 0; i < len; ++i)
                bw.writeSigned(stream[start + i], bits);
        }
        return {t.shape(), bw.bitCount(), std::move(bw).bytes(),
                std::move(headers)};
    }

    DecodeResult
    tryDecode(const EncodedTensor &enc) const override
    {
        DecodeResult r;
        if (!checkShape(enc.shape, r))
            return r;
        AlignedVec<std::int32_t> stream(Shape3(enc.shape).volume(),
                                        scratchAlloc<std::int32_t>());
        BitReader br(enc.bytes);
        for (std::size_t start = 0; start < stream.size();
             start += static_cast<std::size_t>(groupSize_)) {
            std::size_t len = std::min(
                static_cast<std::size_t>(groupSize_),
                stream.size() - start);
            std::uint32_t hdr = 0;
            if (!br.tryRead(5, hdr))
                return truncatedAt(br, start, "a DeltaD group header");
            int bits = static_cast<int>(hdr) + 1;
            if (bits > kMaxFieldBits) {
                // A 5-bit header can declare up to 32 bits; anything
                // past 17 cannot come from our encoder and must be
                // rejected rather than trusted.
                r.status = DecodeStatus::BadHeader;
                r.message =
                    badHeaderMessage("DeltaD", bits, kMaxFieldBits);
                r.errorBit = br.bitPosition() - 5;
                r.valuesDecoded = start;
                return r;
            }
            for (std::size_t i = 0; i < len; ++i) {
                if (!br.tryReadSigned(bits, stream[start + i]))
                    return truncatedAt(br, start + i, "a DeltaD field");
            }
        }
        TensorI16 t(enc.shape);
        std::size_t pos = 0;
        for (int c = 0; c < t.channels(); ++c) {
            for (int y = 0; y < t.height(); ++y) {
                // 64-bit accumulator: a hostile stream can feed a long
                // row of maximal deltas, which would overflow int32.
                std::int64_t acc = 0;
                for (int x = 0; x < t.width(); ++x) {
                    if (isAnchor(x))
                        acc = stream[pos];
                    else
                        acc += stream[pos];
                    ++pos;
                    t.at(c, y, x) = saturate16(acc);
                }
            }
        }
        r.tensor = std::move(t);
        r.valuesDecoded = r.tensor.size();
        return r;
    }

  private:
    int groupSize_;
    int reanchor_;
};

} // namespace

std::unique_ptr<ActivationCodec>
makeNoCompressionCodec()
{
    return std::make_unique<NoCompressionCodec>();
}

std::unique_ptr<ActivationCodec>
makeRlezCodec()
{
    return std::make_unique<RlezCodec>();
}

std::unique_ptr<ActivationCodec>
makeRleCodec()
{
    return std::make_unique<RleCodec>();
}

std::unique_ptr<ActivationCodec>
makeProfiledCodec(int precision_bits)
{
    return std::make_unique<ProfiledCodec>(precision_bits);
}

std::unique_ptr<ActivationCodec>
makeRawDCodec(int group_size)
{
    return std::make_unique<RawDCodec>(group_size);
}

std::unique_ptr<ActivationCodec>
makeDeltaDCodec(int group_size, int reanchor_interval)
{
    return std::make_unique<DeltaDCodec>(group_size, reanchor_interval);
}

std::unique_ptr<ActivationCodec>
makeCodec(Compression scheme, int profiled_bits)
{
    switch (scheme) {
      case Compression::None:
      case Compression::Ideal:
        return makeNoCompressionCodec();
      case Compression::Rlez:
        return makeRlezCodec();
      case Compression::Rle:
        return makeRleCodec();
      case Compression::Profiled:
        return makeProfiledCodec(profiled_bits);
      case Compression::RawD8:
        return makeRawDCodec(8);
      case Compression::RawD16:
        return makeRawDCodec(16);
      case Compression::RawD256:
        return makeRawDCodec(256);
      case Compression::DeltaD8:
        return makeDeltaDCodec(8);
      case Compression::DeltaD16:
        return makeDeltaDCodec(16);
      case Compression::DeltaD256:
        return makeDeltaDCodec(256);
    }
    throw std::invalid_argument("makeCodec: unknown scheme");
}

namespace
{

constexpr std::uint32_t kEncodedMagic = 0xD1FFE001;

template <typename T>
void
writeWire(std::ostream &os, T v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readWire(std::istream &is, const char *what)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        throw DecodeError(DecodeStatus::Truncated,
                          std::string("encoded stream ended inside ") +
                              what);
    return v;
}

} // namespace

void
saveEncoded(EncodedTensor &enc, std::ostream &os)
{
    sealEncoded(enc);
    writeWire(os, kEncodedMagic);
    writeWire(os, static_cast<std::uint32_t>(enc.shape.c));
    writeWire(os, static_cast<std::uint32_t>(enc.shape.h));
    writeWire(os, static_cast<std::uint32_t>(enc.shape.w));
    writeWire(os, static_cast<std::uint64_t>(enc.bits));
    writeWire(os, static_cast<std::uint32_t>(enc.headerBits.size()));
    for (const BitRange &r : enc.headerBits) {
        writeWire(os, static_cast<std::uint64_t>(r.first));
        writeWire(os, static_cast<std::uint64_t>(r.count));
    }
    writeWire(os, static_cast<std::uint64_t>(enc.bytes.size()));
    os.write(reinterpret_cast<const char *>(enc.bytes.data()),
             static_cast<std::streamsize>(enc.bytes.size()));
    // Integrity footer: CRC first, then the bit length again, so a
    // truncation inside the payload and a flipped payload bit raise
    // different structured errors on load.
    writeWire(os, enc.payloadCrc);
    writeWire(os, enc.payloadBits);
}

EncodedTensor
loadEncoded(std::istream &is)
{
    if (readWire<std::uint32_t>(is, "the magic") != kEncodedMagic)
        throw DecodeError(DecodeStatus::Truncated,
                          "bad encoded-stream magic");
    EncodedTensor enc;
    enc.shape.c = static_cast<int>(readWire<std::uint32_t>(is, "shape"));
    enc.shape.h = static_cast<int>(readWire<std::uint32_t>(is, "shape"));
    enc.shape.w = static_cast<int>(readWire<std::uint32_t>(is, "shape"));
    enc.bits = static_cast<std::size_t>(
        readWire<std::uint64_t>(is, "the bit count"));
    auto headerCount = readWire<std::uint32_t>(is, "the header count");
    // A hostile count would otherwise drive a huge reserve; each
    // header is 16 wire bytes, so cap via the decode-element cap.
    if (headerCount > kMaxDecodeElements)
        throw DecodeError(DecodeStatus::BadShape,
                          "encoded stream declares an absurd header "
                          "count");
    enc.headerBits.reserve(headerCount);
    for (std::uint32_t i = 0; i < headerCount; ++i) {
        BitRange r;
        r.first = static_cast<std::size_t>(
            readWire<std::uint64_t>(is, "a header range"));
        r.count = static_cast<std::size_t>(
            readWire<std::uint64_t>(is, "a header range"));
        enc.headerBits.push_back(r);
    }
    auto byteCount = readWire<std::uint64_t>(is, "the byte count");
    if (byteCount > (kMaxDecodeElements * 2) + 8)
        throw DecodeError(DecodeStatus::BadShape,
                          "encoded stream declares an absurd byte "
                          "count");
    enc.bytes.resize(static_cast<std::size_t>(byteCount));
    is.read(reinterpret_cast<char *>(enc.bytes.data()),
            static_cast<std::streamsize>(enc.bytes.size()));
    if (!is)
        throw DecodeError(DecodeStatus::Truncated,
                          "encoded stream ended inside the payload");
    enc.payloadCrc = readWire<std::uint32_t>(is, "the footer CRC");
    enc.payloadBits = readWire<std::uint64_t>(is, "the footer length");
    enc.sealed = true;
    if (!verifyEncoded(enc))
        throw DecodeError(DecodeStatus::BadChecksum,
                          "encoded stream fails its integrity footer");
    return enc;
}

} // namespace diffy
