/**
 * @file
 * Scalar reference kernels and the runtime ISA dispatcher. This TU is
 * compiled with baseline flags only — the scalar table must run on
 * any host the binary reaches. The SSE4/AVX2 tables live in
 * simd_sse4.cc / simd_avx2.cc behind per-TU -m flags.
 */

#include "common/simd.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace diffy::simd
{

namespace
{

/** NAF weight: popcount(v ^ 3v); exact in 32 bits for any int16. */
inline int
nafWeight32(std::int32_t v)
{
    return std::popcount(static_cast<std::uint32_t>(v ^ (3 * v)));
}

/** NAF weight in 64 bits: exact for any int32 input. */
inline int
nafWeight64(std::int64_t v)
{
    return std::popcount(static_cast<std::uint64_t>(v ^ (3 * v)));
}

/** Branch-free magnitude fold: v >= 0 ? v : ~v (see bitsNeeded()). */
inline std::uint32_t
foldSign32(std::int32_t v)
{
    return static_cast<std::uint32_t>(v ^ (v >> 31));
}

void
scalarBoothPlane16(const std::int16_t *src, std::uint8_t *dst,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(nafWeight32(src[i]));
}

void
scalarBoothPlane32(const std::int32_t *src, std::uint8_t *dst,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(nafWeight64(src[i]));
}

void
scalarBitsPlane16(const std::int16_t *src, std::uint8_t *dst,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(foldSign32(src[i])) + 1);
    }
}

void
scalarBitsPlane32(const std::int32_t *src, std::uint8_t *dst,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(foldSign32(src[i])) + 1);
    }
}

int
scalarGroupBits16(const std::int16_t *group, std::size_t n)
{
    // bit_width(a | b) == max(bit_width(a), bit_width(b)), so or-ing
    // the sign-folded magnitudes gives the group maximum in one
    // branch-free reduction.
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
        m |= foldSign32(group[i]);
    return std::bit_width(m) + 1;
}

int
scalarGroupBits32(const std::int32_t *group, std::size_t n)
{
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
        m |= foldSign32(group[i]);
    return std::bit_width(m) + 1;
}

int
scalarDeltaBits16(const std::int16_t *prev, const std::int16_t *cur,
                  std::int32_t *delta, std::size_t n)
{
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
        delta[i] = static_cast<std::int32_t>(cur[i]) -
                   static_cast<std::int32_t>(prev[i]);
        m |= foldSign32(delta[i]);
    }
    return std::bit_width(m) + 1;
}

void
scalarAddSat16(const std::int16_t *prev, const std::int32_t *delta,
               std::int16_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t v =
            static_cast<std::int32_t>(prev[i]) + delta[i];
        out[i] = static_cast<std::int16_t>(
            std::clamp(v, -32768, 32767));
    }
}

std::int64_t
scalarWalkSumMax(const std::uint8_t *base, std::size_t rowStride,
                 std::size_t rows, int colStride, std::uint8_t *colMax,
                 int cols)
{
    std::int64_t sum = 0;
    for (int j = 0; j < cols; ++j)
        colMax[j] = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint8_t *row = base + r * rowStride;
        for (int j = 0; j < cols; ++j) {
            const std::uint8_t v =
                row[static_cast<std::size_t>(j) * colStride];
            sum += v;
            if (v > colMax[j])
                colMax[j] = v;
        }
    }
    return sum;
}

/**
 * CRC-32C lookup table, reflected polynomial 0x82F63B78. Built once at
 * first use; 1 KiB, shared by every caller.
 */
const std::uint32_t *
crc32cTable()
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
            t[n] = c;
        }
        return t;
    }();
    return table.data();
}

std::uint32_t
scalarCrc32c(const void *data, std::size_t bytes, std::uint32_t crc)
{
    // One table lookup per byte: the oracle the x86 crc32 instruction
    // is fuzzed against.
    const std::uint32_t *table = crc32cTable();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = ~crc;
    for (std::size_t i = 0; i < bytes; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return ~c;
}

/** True when the running CPU can execute @p isa. */
bool
cpuSupports(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
      case Isa::Sse4:
        return __builtin_cpu_supports("sse4.2") != 0;
      case Isa::Avx2:
        return __builtin_cpu_supports("avx2") != 0;
#endif
      default:
        return false;
    }
}

const KernelTable *
resolveOnce()
{
    const char *env = std::getenv("DIFFY_ISA");
    if (env == nullptr || *env == '\0' ||
        std::string(env) == "native")
        return table(bestIsa());
    Isa want = Isa::Scalar;
    if (!parseIsa(env, want)) {
        std::fprintf(stderr,
                     "diffy: unknown DIFFY_ISA '%s' "
                     "(scalar|sse4|avx2|native); using %s\n",
                     env, isaName(bestIsa()));
        return table(bestIsa());
    }
    const KernelTable *t = table(want);
    if (t == nullptr) {
        std::fprintf(stderr,
                     "diffy: DIFFY_ISA=%s is not available on this "
                     "host/build; falling back to scalar\n",
                     env);
        return &scalarTable();
    }
    return t;
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Sse4:
        return "sse4";
      case Isa::Avx2:
        return "avx2";
    }
    return "?";
}

bool
parseIsa(const std::string &name, Isa &out)
{
    for (Isa isa : {Isa::Scalar, Isa::Sse4, Isa::Avx2}) {
        if (name == isaName(isa)) {
            out = isa;
            return true;
        }
    }
    return false;
}

namespace
{

void
portableConvolveF32(const float *in, const float *weights, float *out,
                    const ConvGeometry &g)
{
    // One axpy per (f, c, ky, kx) over the whole output plane: each
    // output still sums its taps in (c, ky, kx) order from +0.0f, and
    // the unit-stride row loop auto-vectorizes on any target.
    const std::size_t outPlane =
        static_cast<std::size_t>(g.outH) * g.outW;
    const std::size_t inPlane =
        static_cast<std::size_t>(g.paddedH) * g.paddedW;
    const std::size_t rowStep =
        static_cast<std::size_t>(g.stride) * g.paddedW;
    std::fill_n(out, g.filters * outPlane, 0.0f);
    const float *w = weights;
    for (int f = 0; f < g.filters; ++f) {
        float *of = out + f * outPlane;
        for (int c = 0; c < g.channels; ++c) {
            for (int ky = 0; ky < g.kernel; ++ky) {
                for (int kx = 0; kx < g.kernel; ++kx) {
                    const float wv = *w++;
                    if (wv == 0.0f)
                        continue; // adds only +-0; pruned layers
                    const float *ip =
                        in + c * inPlane +
                        static_cast<std::size_t>(ky * g.paddedW + kx) *
                            g.dilation;
                    float *op = of;
                    for (int oy = 0; oy < g.outH;
                         ++oy, ip += rowStep, op += g.outW) {
                        if (g.stride == 1) {
                            for (int ox = 0; ox < g.outW; ++ox)
                                op[ox] += wv * ip[ox];
                        } else {
                            for (int ox = 0; ox < g.outW; ++ox)
                                op[ox] += wv * ip[ox * g.stride];
                        }
                    }
                }
            }
        }
    }
}

bool
portableConvolveI32(const std::int32_t *in, const std::int16_t *weights,
                    std::int32_t *out, const ConvGeometry &g)
{
    // Row axpys over a stack block of int64 accumulators: each output
    // row is cut into blocks of kBlock columns, and every (c, ky, kx)
    // tap of filter f adds w * input row into the block. Zero weights
    // add nothing, so they are skipped.
    constexpr int kBlock = 256;
    std::int64_t acc[kBlock];
    const std::size_t inPlane =
        static_cast<std::size_t>(g.paddedH) * g.paddedW;
    const std::size_t filterTaps =
        static_cast<std::size_t>(g.channels) * g.kernel * g.kernel;
    const std::size_t s = static_cast<std::size_t>(g.stride);
    bool ok = true;
    for (int f = 0; f < g.filters; ++f) {
        const std::int16_t *wf = weights + f * filterTaps;
        for (int oy = 0; oy < g.outH; ++oy) {
            std::int32_t *orow =
                out + (static_cast<std::size_t>(f) * g.outH + oy) * g.outW;
            for (int x0 = 0; x0 < g.outW; x0 += kBlock) {
                const int n = std::min(kBlock, g.outW - x0);
                std::fill_n(acc, n, std::int64_t{0});
                const std::int16_t *w = wf;
                for (int c = 0; c < g.channels; ++c) {
                    for (int ky = 0; ky < g.kernel; ++ky) {
                        const std::int32_t *row =
                            in + c * inPlane +
                            (static_cast<std::size_t>(oy) * s +
                             static_cast<std::size_t>(ky) * g.dilation) *
                                g.paddedW +
                            static_cast<std::size_t>(x0) * s;
                        for (int kx = 0; kx < g.kernel; ++kx) {
                            const std::int64_t wv = *w++;
                            if (wv == 0)
                                continue;
                            const std::int32_t *ip =
                                row + static_cast<std::size_t>(kx) *
                                          g.dilation;
                            if (s == 1) {
                                for (int j = 0; j < n; ++j)
                                    acc[j] += wv * ip[j];
                            } else {
                                for (int j = 0; j < n; ++j)
                                    acc[j] += wv * ip[j * s];
                            }
                        }
                    }
                }
                for (int j = 0; j < n; ++j) {
                    orow[x0 + j] = static_cast<std::int32_t>(acc[j]);
                    ok = ok && orow[x0 + j] == acc[j];
                }
            }
        }
    }
    return ok;
}

} // namespace

ConvGeometry
sameConvGeometry(int channels, int filters, int inH, int inW, int kernel,
                 int stride, int dilation)
{
    ConvGeometry g;
    g.channels = channels;
    g.filters = filters;
    g.kernel = kernel;
    g.stride = stride;
    g.dilation = dilation;
    const int effK = dilation * (kernel - 1) + 1;
    g.pad = (effK - 1) / 2;
    g.outH = (inH + 2 * g.pad - effK) / stride + 1;
    g.outW = (inW + 2 * g.pad - effK) / stride + 1;
    g.paddedH = std::max(inH + 2 * g.pad, (g.outH - 1) * stride + effK);
    g.paddedW = std::max(inW + 2 * g.pad, (g.outW - 1) * stride + effK);
    return g;
}

const KernelTable &
scalarTable()
{
    static const KernelTable t = {
        Isa::Scalar,        &scalarBoothPlane16, &scalarBoothPlane32,
        &scalarBitsPlane16, &scalarBitsPlane32,  &scalarGroupBits16,
        &scalarGroupBits32, &scalarDeltaBits16,  &scalarAddSat16,
        &scalarWalkSumMax,  &scalarCrc32c,
        &portableConvolveF32, &portableConvolveI32,
    };
    return t;
}

const KernelTable *
table(Isa isa)
{
    if (!cpuSupports(isa))
        return nullptr;
    switch (isa) {
      case Isa::Scalar:
        return &scalarTable();
#if DIFFY_SIMD_SSE4
      case Isa::Sse4:
        return &detail::sse4Table();
#endif
#if DIFFY_SIMD_AVX2
      case Isa::Avx2:
        return &detail::avx2Table();
#endif
      default:
        return nullptr;
    }
}

std::vector<Isa>
availableIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Sse4, Isa::Avx2}) {
        if (table(isa) != nullptr)
            out.push_back(isa);
    }
    return out;
}

Isa
bestIsa()
{
    // The enumerators are ordered narrow-to-wide per architecture and
    // only one architecture's entries probe true on a given host, so
    // the last available ISA is the widest.
    return availableIsas().back();
}

const KernelTable &
kernels()
{
    // Resolved once, first use; the table is immutable afterwards, so
    // concurrent readers only ever see the same pointers (the static
    // initialization itself is thread-safe).
    static const KernelTable *resolved = resolveOnce();
    return *resolved;
}

Isa
activeIsa()
{
    return kernels().isa;
}

} // namespace diffy::simd
