#include "nn/envelope.hh"

#include <cstring>

#include "common/bitops.hh"

namespace diffy
{

namespace
{

template <typename T>
T
readPod(std::istream &is, const char *what)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        throw std::runtime_error(std::string(what) + " stream truncated");
    return v;
}

} // namespace

void
BodySink::put(const void *p, std::size_t n)
{
    bytes += n;
    if (os != nullptr) {
        os->write(static_cast<const char *>(p),
                  static_cast<std::streamsize>(n));
        crc = crc32c(p, n, crc);
    }
}

void
BodySink::string(const std::string &s)
{
    pod(static_cast<std::uint32_t>(s.size()));
    put(s.data(), s.size());
}

void
BodyCursor::take(void *dst, std::size_t n)
{
    need(n);
    if (n == 0)
        return;
    std::memcpy(dst, p_, n);
    p_ += n;
    left_ -= n;
}

std::string
BodyCursor::string()
{
    const auto n = pod<std::uint32_t>();
    need(n);
    std::string s(n, '\0');
    take(s.data(), n);
    return s;
}

void
BodyCursor::need(std::size_t n) const
{
    if (n > left_)
        throw std::runtime_error("envelope body truncated");
}

void
BodyCursor::checkDim(int v, std::uint64_t &bytes) const
{
    if (v < 0)
        throw std::runtime_error("envelope body declares a negative dim");
    bytes *= static_cast<std::uint64_t>(v);
    if (bytes > left_)
        throw std::runtime_error(
            "envelope body declares a block larger than itself");
}

std::unique_ptr<char[]>
readEnvelopeBody(std::istream &is, std::uint32_t magic, const char *what,
                 std::size_t &bytes)
{
    if (readPod<std::uint32_t>(is, what) != magic)
        throw std::runtime_error(std::string("bad ") + what + " magic");
    const auto declared = readPod<std::uint64_t>(is, what);
    if (declared > kMaxEnvelopeBodyBytes)
        throw std::runtime_error(std::string(what) +
                                 " declares an absurd body size");
    // Read and verify the whole body *before* parsing: a flipped
    // tensor byte would otherwise silently smear into downstream sims.
    bytes = static_cast<std::size_t>(declared);
    auto body = std::make_unique_for_overwrite<char[]>(bytes);
    is.read(body.get(), static_cast<std::streamsize>(bytes));
    if (!is)
        throw std::runtime_error(std::string(what) + " stream truncated");
    if (crc32c(body.get(), bytes) != readPod<std::uint32_t>(is, what))
        throw std::runtime_error(std::string(what) +
                                 " checksum mismatch (detected corruption)");
    return body;
}

} // namespace diffy
