/**
 * @file
 * Runtime ISA dispatch for the hot kernels (DESIGN.md §14).
 *
 * Every batched inner loop of the reproduction — term/bits planes,
 * group-header reductions, temporal delta pack/unpack, the
 * interior-column pallet walk, the CRC-32C wire checksum, the float
 * convolution of the forward pass and the fixed-point convolution of
 * temporal serving — runs through one
 * function-pointer KernelTable resolved once at startup.
 * The scalar table is the PR 3 reference code and is always present;
 * the SSE4 and AVX2 tables (x86) are compiled in their own translation
 * units with per-TU -m flags, so the binary still runs on baseline
 * hardware and CPUID decides at runtime. Other architectures run the
 * scalar table.
 *
 * Contract shared by every table: identical results to the scalar
 * table, bit for bit, on every input the callers can produce. Vector
 * implementations use exact-width chunked loads (32/16/8/4-byte) plus
 * scalar tails — never overreading masked loads — so no buffer
 * padding is required and sanitizers see only in-bounds accesses.
 *
 * `DIFFY_ISA=scalar|sse4|avx2` overrides the CPUID probe for
 * testing (the CI byte-identical gates run every bench twice); an
 * unavailable or unknown request warns on stderr and falls back to
 * scalar so stdout purity is never at risk.
 */

#ifndef DIFFY_COMMON_SIMD_HH
#define DIFFY_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace diffy::simd
{

/** Instruction sets a kernel table can target. */
enum class Isa
{
    Scalar,
    Sse4,
    Avx2,
};

/** Lowercase name used by DIFFY_ISA and the bench JSON context. */
const char *isaName(Isa isa);

/** Parse an isaName() spelling; returns false on an unknown name. */
bool parseIsa(const std::string &name, Isa &out);

/**
 * Geometry of one whole-layer convolution (KernelTable::convolveF32
 * and convolveI32). The caller zero-pads the input so that every tap
 * of every output window lies inside the paddedH x paddedW plane:
 * (outH - 1) * stride + (kernel - 1) * dilation < paddedH, and the
 * same for the width. The kernels read only the padded plane; pad is
 * where the caller puts the unpadded input inside it.
 */
struct ConvGeometry
{
    int channels = 0;
    int filters = 0;
    int kernel = 0; ///< square kernel side
    int stride = 1;
    int dilation = 1;
    int pad = 0; ///< zero rows/columns before the input, each side
    int paddedH = 0;
    int paddedW = 0;
    int outH = 0;
    int outW = 0;
};

/**
 * The same-padding geometry every convolution of the reproduction
 * uses: pad = (dilation * (kernel - 1)) / 2, out = (in + 2 * pad -
 * effective kernel) / stride + 1 (truncating), and a padded plane
 * that also covers the window of an output the truncation rounds up
 * to (an even kernel on a plane smaller than its window).
 */
ConvGeometry sameConvGeometry(int channels, int filters, int inH, int inW,
                              int kernel, int stride, int dilation);

/**
 * The dispatch table. One instance per compiled-in ISA; all entries
 * are non-null and produce results identical to the scalar table.
 */
struct KernelTable
{
    Isa isa = Isa::Scalar;

    /** dst[i] = boothTerms(src[i]), NAF weight via popcount(v^3v). */
    void (*boothTermsPlane16)(const std::int16_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;
    void (*boothTermsPlane32)(const std::int32_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;

    /** dst[i] = bitsNeeded(src[i]) (two's complement width). */
    void (*bitsNeededPlane16)(const std::int16_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;
    void (*bitsNeededPlane32)(const std::int32_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;

    /** Group max of bitsNeeded over n values (>= 1, even when n==0). */
    int (*groupBits16)(const std::int16_t *group, std::size_t n) = nullptr;
    int (*groupBits32)(const std::int32_t *group, std::size_t n) = nullptr;

    /**
     * Temporal encode inner loop: delta[i] = cur[i] - prev[i] and the
     * group header width in one pass. Returns max(1, max bitsNeeded
     * over the deltas).
     */
    int (*deltaBits16)(const std::int16_t *prev, const std::int16_t *cur,
                       std::int32_t *delta, std::size_t n) = nullptr;

    /**
     * Temporal decode inner loop: out[i] = saturate16(prev[i] +
     * delta[i]). Deltas must fit 18 signed bits (the codecs cap
     * fields at kMaxFieldBits == 17), so prev + delta is exact int32.
     */
    void (*addSat16)(const std::int16_t *prev, const std::int32_t *delta,
                     std::int16_t *out, std::size_t n) = nullptr;

    /**
     * Pallet-walk interior block: over rows r in [0, rows) and
     * columns j in [0, cols), reads v = base[r*rowStride +
     * j*colStride], OVERWRITES colMax[j] with the per-column max and
     * returns the total sum of every element visited. rows >= 1.
     */
    std::int64_t (*walkSumMax)(const std::uint8_t *base,
                               std::size_t rowStride, std::size_t rows,
                               int colStride, std::uint8_t *colMax,
                               int cols) = nullptr;

    /**
     * CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) of @p
     * bytes bytes at @p data, continuing from @p crc: the value
     * crc32c() in bitops.hh documents. Any alignment of @p data.
     */
    std::uint32_t (*crc32c)(const void *data, std::size_t bytes,
                            std::uint32_t crc) = nullptr;

    /**
     * Whole-layer float convolution over a zero-padded CHW input
     * (geometry in @p g; weights are (filters, channels, k, k)):
     * out[f][oy][ox] = the sum over (c, ky, kx), in that order and
     * starting from +0.0f, of w[f][c][ky][kx] * in[c][oy * stride +
     * ky * dilation][ox * stride + kx * dilation], each product and
     * each sum rounded separately (no FMA). With finite inputs this
     * is bit-identical to a bounds-checked loop that skips padding
     * taps and zero weights: those terms are +-0 and the accumulator
     * is never -0 (DESIGN.md §14). So an entry may skip zero weights
     * or not, whichever is faster.
     */
    void (*convolveF32)(const float *in, const float *weights, float *out,
                        const ConvGeometry &g) = nullptr;

    /**
     * Whole-layer fixed-point convolution over a zero-padded CHW int32
     * input, with int16 weights (filters, channels, k, k) in the
     * layout of convolveF32: out[f][oy][ox] = the sum over (c, ky, kx)
     * of w[f][c][ky][kx] * in[c][oy * stride + ky * dilation][ox *
     * stride + kx * dilation], accumulated in int64 and narrowed to
     * int32. Returns false when some output's sum lies outside int32
     * (the caller throws; that output's value is unspecified).
     *
     * Every product is exact in int64 (|in| < 2^31, |w| <= 2^15), and
     * so is every partial sum below 2^17 taps per output. Integer
     * addition is associative, so any accumulation order gives the
     * same bits, and zero weights and padding taps add 0: an entry may
     * skip them or not (DESIGN.md §14).
     */
    bool (*convolveI32)(const std::int32_t *in, const std::int16_t *weights,
                        std::int32_t *out, const ConvGeometry &g) = nullptr;
};

/** The reference table (PR 3 scalar kernels); always available. */
const KernelTable &scalarTable();

/**
 * Table for @p isa, or nullptr when it is not compiled in or the CPU
 * lacks it. table(Isa::Scalar) is never null.
 */
const KernelTable *table(Isa isa);

/** Every ISA with a usable table on this host, Scalar first. */
std::vector<Isa> availableIsas();

/** The widest available ISA (what the probe dispatches to). */
Isa bestIsa();

/**
 * The dispatched table: bestIsa() unless DIFFY_ISA overrides it.
 * Resolved once on first use and immutable afterwards (thread-safe).
 */
const KernelTable &kernels();

/** ISA of the dispatched table. */
Isa activeIsa();

namespace detail
{

// Per-ISA table factories, defined in their own -m-flagged TUs and
// referenced by the dispatcher only when compiled in.
const KernelTable &sse4Table();
const KernelTable &avx2Table();

} // namespace detail

} // namespace diffy::simd

#endif // DIFFY_COMMON_SIMD_HH
