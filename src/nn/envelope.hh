/**
 * @file
 * The CRC-framed envelope shared by the on-disk trace and weight-bank
 * files (DESIGN.md §12):
 *
 *     u32 magic | u64 body length | body | u32 crc32c(body)
 *
 * A writer serializes its body twice through a BodySink: a counting
 * pass sizes the envelope, then a writing pass streams the body and
 * checksums exactly the bytes it writes. A reader verifies the magic,
 * the length cap and the CRC of the whole body before it parses a
 * byte, then walks the body with a bounds-checked BodyCursor, so a
 * flipped byte never surfaces as a misshapen tensor.
 */

#ifndef DIFFY_NN_ENVELOPE_HH
#define DIFFY_NN_ENVELOPE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

namespace diffy
{

/**
 * Ceiling on the declared body size of an envelope. The files this repo
 * writes are tens of megabytes at most; the cap turns a corrupted
 * length field into a clean error instead of a multi-gigabyte
 * allocation.
 */
inline constexpr std::uint64_t kMaxEnvelopeBodyBytes = std::uint64_t{1}
                                                       << 30;

/**
 * Where a serializer puts a body. Without a stream it only counts
 * bytes; with one it writes every piece and chains its CRC-32C.
 */
struct BodySink
{
    std::ostream *os = nullptr;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;

    void put(const void *p, std::size_t n);

    template <typename T>
    void
    pod(const T &v)
    {
        put(&v, sizeof v);
    }

    void i32(int v) { pod(static_cast<std::int32_t>(v)); }
    void string(const std::string &s);

    void
    block(const std::int16_t *data, std::size_t n)
    {
        put(data, n * sizeof(std::int16_t));
    }
};

/**
 * Bounds-checked reader over a CRC-verified body. Every read that
 * would pass the end throws, and tensor dims are checked against the
 * bytes left before anything is allocated for them, so a body whose
 * CRC matches but whose fields are absurd (written by a buggy or
 * hostile producer) fails cleanly too.
 */
class BodyCursor
{
  public:
    BodyCursor(const char *p, std::size_t n) : p_(p), left_(n) {}

    std::size_t left() const { return left_; }

    /** Copy @p n bytes to @p dst; n == 0 copies nothing (dst may be
     *  an empty tensor's null data()). */
    void take(void *dst, std::size_t n);

    template <typename T>
    T
    pod()
    {
        T v;
        take(&v, sizeof v);
        return v;
    }

    int i32() { return pod<std::int32_t>(); }
    std::string string();

    /**
     * Read N tensor dims; throws unless each is non-negative and the
     * int16 block they describe fits in the bytes left.
     */
    template <std::size_t N>
    std::array<int, N>
    dims()
    {
        std::array<int, N> d;
        std::uint64_t bytes = sizeof(std::int16_t);
        for (int &v : d) {
            v = i32();
            // bytes <= left_ <= 2^30 before each step and v < 2^31,
            // so the product stays below 2^61.
            checkDim(v, bytes);
        }
        return d;
    }

  private:
    void need(std::size_t n) const;
    void checkDim(int v, std::uint64_t &bytes) const;

    const char *p_;
    std::size_t left_;
};

/** Write @p magic, then the body @p serialize puts into a BodySink,
 *  framed by its length and CRC. */
template <typename Serialize>
void
writeEnvelope(std::ostream &os, std::uint32_t magic, Serialize &&serialize)
{
    BodySink count;
    serialize(count);
    os.write(reinterpret_cast<const char *>(&magic), sizeof magic);
    os.write(reinterpret_cast<const char *>(&count.bytes),
             sizeof count.bytes);
    BodySink body{&os};
    serialize(body);
    os.write(reinterpret_cast<const char *>(&body.crc), sizeof body.crc);
}

/**
 * The verified body of an envelope: read the whole body into one
 * uninitialised buffer and check its CRC. @p what names the file kind
 * in error messages.
 * @throws std::runtime_error on a bad magic, absurd length, truncation
 *         or checksum mismatch.
 */
std::unique_ptr<char[]> readEnvelopeBody(std::istream &is,
                                         std::uint32_t magic,
                                         const char *what,
                                         std::size_t &bytes);

/**
 * Parse an envelope's verified body with @p parse (BodyCursor & ->
 * result); throws if the parser leaves bytes over.
 */
template <typename Parse>
auto
readEnvelope(std::istream &is, std::uint32_t magic, const char *what,
             Parse &&parse)
{
    std::size_t n = 0;
    const std::unique_ptr<char[]> bytes =
        readEnvelopeBody(is, magic, what, n);
    BodyCursor body(bytes.get(), n);
    auto result = parse(body);
    if (body.left() != 0)
        throw std::runtime_error(std::string(what) +
                                 " body has trailing bytes");
    return result;
}

} // namespace diffy

#endif // DIFFY_NN_ENVELOPE_HH
