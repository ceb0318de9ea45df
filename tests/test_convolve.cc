/**
 * @file
 * Oracle tests for the whole-layer convolution kernels: the float
 * KernelTable::convolveF32 behind convolve(), and the fixed-point
 * KernelTable::convolveI32 behind convolveTemporalDelta() and the
 * temporal anchor path. Each oracle is the original bounds-checked
 * loop the kernel replaced; every compiled-in kernel table must
 * reproduce it bit for bit (memcmp, not a tolerance) over strides,
 * dilations, kernel sizes, filter counts and output widths that hit
 * every tile and tail path, including padding wider than the input.
 * Under ASan the same cases probe the exact-width tail loads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "common/simd.hh"
#include "core/differential_conv.hh"
#include "core/temporal.hh"
#include "nn/executor.hh"

namespace diffy
{
namespace
{

/**
 * The executor's convolution before the register-tiled kernel: a
 * bounds-checked loop over (f, c, ky, kx) that skips zero weights and
 * padding taps and accumulates into the whole output plane. ox_hi is
 * clamped to 0 for taps that start past the row (dx >= in_w, which
 * needs pad >= in_w): the truncating division alone gives 1 there
 * once stride > 1, and read past the row.
 */
Tensor3<float>
referenceConvolve(const Tensor3<float> &input, const Tensor4<float> &weights,
                  int stride, int dilation)
{
    const int in_c = input.channels();
    const int in_h = input.height();
    const int in_w = input.width();
    const int k = weights.height();
    const int eff_k = dilation * (k - 1) + 1;
    const int pad = (eff_k - 1) / 2;
    const int out_h = (in_h + 2 * pad - eff_k) / stride + 1;
    const int out_w = (in_w + 2 * pad - eff_k) / stride + 1;

    Tensor3<float> out(weights.filters(), out_h, out_w, 0.0f);
    for (int f = 0; f < weights.filters(); ++f) {
        float *out_base = out.data() +
                          static_cast<std::size_t>(f) * out_h * out_w;
        for (int c = 0; c < in_c; ++c) {
            const float *in_base = input.data() +
                                   static_cast<std::size_t>(c) * in_h * in_w;
            for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                    float wv = weights.at(f, c, ky, kx);
                    if (wv == 0.0f)
                        continue;
                    int dy = ky * dilation - pad;
                    int dx = kx * dilation - pad;
                    for (int oy = 0; oy < out_h; ++oy) {
                        int iy = oy * stride + dy;
                        if (iy < 0 || iy >= in_h)
                            continue;
                        const float *in_row = in_base +
                            static_cast<std::size_t>(iy) * in_w;
                        float *out_row = out_base +
                            static_cast<std::size_t>(oy) * out_w;
                        // Valid ox range: 0 <= ox*stride + dx < in_w.
                        int ox_lo = 0;
                        if (dx < 0)
                            ox_lo = (-dx + stride - 1) / stride;
                        const int ox_hi =
                            dx >= in_w
                                ? 0
                                : std::min(out_w,
                                           (in_w - 1 - dx) / stride + 1);
                        for (int ox = ox_lo; ox < ox_hi; ++ox)
                            out_row[ox] += wv * in_row[ox * stride + dx];
                    }
                }
            }
        }
    }
    return out;
}

/** One fuzz shape: (c, h, w) input, f filters of k x k. */
struct ConvCase
{
    int c = 1;
    int h = 1;
    int w = 1;
    int f = 1;
    int k = 1;
    int stride = 1;
    int dilation = 1;

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "c=" << c << " h=" << h << " w=" << w << " f=" << f
           << " k=" << k << " stride=" << stride
           << " dilation=" << dilation;
        return os.str();
    }
};

/**
 * Random finite operands for @p cc. Odd seeds ReLU the input (about
 * half zeros) and keep only a third of the weights; every case plants
 * a few -0.0f weights and inputs, the signed zeros the bit-exactness
 * argument has to survive.
 */
void
randomOperands(const ConvCase &cc, std::uint64_t seed, Tensor3<float> &in,
               Tensor4<float> &w)
{
    Rng rng(seed);
    const bool sparse = (seed & 1) != 0;
    in = Tensor3<float>(cc.c, cc.h, cc.w);
    for (std::size_t i = 0; i < in.size(); ++i) {
        float v = static_cast<float>(rng.gaussian(0.0, 1.5));
        if (sparse && v < 0.0f)
            v = 0.0f;
        if (rng.below(23) == 0)
            v = -0.0f;
        in.data()[i] = v;
    }
    w = Tensor4<float>(cc.f, cc.c, cc.k, cc.k);
    for (std::size_t i = 0; i < w.size(); ++i) {
        float v = static_cast<float>(rng.gaussian(0.0, 0.3));
        if (sparse && rng.below(3) != 0)
            v = 0.0f;
        if (rng.below(29) == 0)
            v = -0.0f;
        w.data()[i] = v;
    }
}

template <class T>
::testing::AssertionResult
bitIdentical(const Tensor3<T> &got, const Tensor3<T> &want)
{
    if (!(got.shape() == want.shape()))
        return ::testing::AssertionFailure() << "shape differs";
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(T)) !=
        0) {
        std::size_t i = 0;
        while (std::memcmp(got.data() + i, want.data() + i, sizeof(T)) ==
               0)
            ++i;
        return ::testing::AssertionFailure()
               << "first difference at element " << i << ": "
               << got.data()[i] << " vs " << want.data()[i];
    }
    return ::testing::AssertionSuccess();
}

/** Fuzz shapes covering every tile, tail and padding path. */
std::vector<ConvCase>
fuzzCases()
{
    std::vector<ConvCase> cases;
    Rng rng(0xC0417);
    // Every stride x dilation x kernel size, random small planes and
    // filter counts (most not a multiple of 4). Even kernels on
    // planes smaller than the window give an output the truncating
    // size formula rounds up to 1, which the padded copy must cover.
    for (int stride = 1; stride <= 4; ++stride) {
        for (int dilation = 1; dilation <= 4; ++dilation) {
            for (int k : {1, 2, 3, 4, 5, 7, 11}) {
                ConvCase cc;
                cc.stride = stride;
                cc.dilation = dilation;
                cc.k = k;
                cc.c = 1 + static_cast<int>(rng.below(4));
                cc.f = 1 + static_cast<int>(rng.below(9));
                cc.h = 1 + static_cast<int>(rng.below(k >= 7 ? 9 : 14));
                cc.w = 1 + static_cast<int>(rng.below(k >= 7 ? 24 : 44));
                cases.push_back(cc);
            }
        }
    }
    // Output widths 1..40 (every 4-, 8- and 16-lane tail) against
    // filter counts 1..9.
    for (int w = 1; w <= 40; ++w) {
        ConvCase cc;
        cc.c = 3;
        cc.h = 3;
        cc.w = w;
        cc.f = 1 + (w - 1) % 9;
        cc.k = 3;
        cases.push_back(cc);
        cc.stride = 2;
        cases.push_back(cc);
    }
    // Padding at least as wide as the input, the shape that once made
    // the reference read past the row.
    for (int w = 1; w <= 5; ++w) {
        for (int stride = 1; stride <= 4; ++stride) {
            ConvCase cc;
            cc.c = 2;
            cc.h = w;
            cc.w = w;
            cc.f = 5;
            cc.k = (w % 2 == 0) ? 5 : 11;
            cc.stride = stride;
            cases.push_back(cc);
        }
    }
    // A kernel wider than any shipped network's (11 x 11 at most).
    ConvCase wide;
    wide.c = 2;
    wide.h = 6;
    wide.w = 19;
    wide.f = 6;
    wide.k = 13;
    cases.push_back(wide);
    wide.stride = 3;
    cases.push_back(wide);
    // A bulk layer: several full 4 x 16 tiles per row.
    ConvCase bulk;
    bulk.c = 16;
    bulk.h = 20;
    bulk.w = 37;
    bulk.f = 19;
    bulk.k = 3;
    cases.push_back(bulk);
    return cases;
}

class ConvolveKernelOracle : public ::testing::TestWithParam<simd::Isa>
{
  protected:
    const simd::KernelTable &table() { return *simd::table(GetParam()); }
};

TEST_P(ConvolveKernelOracle, MatchesReferenceBitForBit)
{
    std::uint64_t seed = 1;
    for (const ConvCase &cc : fuzzCases()) {
        for (int rep = 0; rep < 2; ++rep, ++seed) {
            Tensor3<float> in;
            Tensor4<float> w;
            randomOperands(cc, seed, in, w);
            const Tensor3<float> want =
                referenceConvolve(in, w, cc.stride, cc.dilation);
            const Tensor3<float> got =
                convolve(in, w, cc.stride, cc.dilation, table());
            ASSERT_TRUE(bitIdentical(got, want))
                << cc.describe() << " seed=" << seed;
        }
    }
}

TEST_P(ConvolveKernelOracle, PaddingWiderThanRowReadsOnlyTheRow)
{
    // in_w = 2, k = 5 (pad 2), stride 4: the kx = 4 tap starts at
    // dx = 2 == in_w. Weights are all 1 and the inputs distinct
    // powers of two, so any tap read past the row changes the sum.
    Tensor3<float> in(1, 2, 2);
    in.at(0, 0, 0) = 1.0f;
    in.at(0, 0, 1) = 2.0f;
    in.at(0, 1, 0) = 4.0f;
    in.at(0, 1, 1) = 8.0f;
    Tensor4<float> w(1, 1, 5, 5, 1.0f);
    const Tensor3<float> want = referenceConvolve(in, w, 4, 1);
    ASSERT_EQ(want.shape(), (Shape3{1, 1, 1}));
    EXPECT_EQ(want.at(0, 0, 0), 15.0f);
    EXPECT_TRUE(bitIdentical(convolve(in, w, 4, 1, table()), want));
}

INSTANTIATE_TEST_SUITE_P(
    AvailableIsas, ConvolveKernelOracle,
    ::testing::ValuesIn(simd::availableIsas()),
    [](const ::testing::TestParamInfo<simd::Isa> &isa_info) {
        return std::string(simd::isaName(isa_info.param));
    });

/**
 * convolveTemporalDelta before KernelTable::convolveI32: a
 * bounds-checked 7-deep loop that skips padding taps, sums each
 * output in int64 and throws std::overflow_error when the sum leaves
 * int32.
 */
TensorI32
referenceConvolveI32(const TensorI32 &delta, const FilterBankI16 &bank,
                     int stride, int dilation)
{
    const int k = bank.height();
    const int eff_k = dilation * (k - 1) + 1;
    const int pad = (eff_k - 1) / 2;
    const int out_h = (delta.height() + 2 * pad - eff_k) / stride + 1;
    const int out_w = (delta.width() + 2 * pad - eff_k) / stride + 1;

    TensorI32 out(bank.filters(), out_h, out_w);
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
                std::int64_t acc = 0;
                for (int c = 0; c < delta.channels(); ++c) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy * stride + ky * dilation - pad;
                        if (iy < 0 || iy >= delta.height())
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix =
                                ox * stride + kx * dilation - pad;
                            if (ix < 0 || ix >= delta.width())
                                continue;
                            acc += static_cast<std::int64_t>(
                                       delta.at(c, iy, ix)) *
                                   bank.at(f, c, ky, kx);
                        }
                    }
                }
                if (acc > std::numeric_limits<std::int32_t>::max() ||
                    acc < std::numeric_limits<std::int32_t>::min())
                    throw std::overflow_error("reference overflow");
                out.at(f, oy, ox) = static_cast<std::int32_t>(acc);
            }
        }
    }
    return out;
}

/**
 * Random fixed-point operands for @p cc. Every third seed is maximal:
 * deltas of +-65535 and weights of -32768 or 32767, most of whose
 * sums leave int32 (both sides must then throw). The others draw
 * 17-bit deltas at about the pan workload's density (0.45 nonzero)
 * and 13-bit weights with a third of them zero.
 */
void
randomFixedOperands(const ConvCase &cc, std::uint64_t seed,
                    TensorI32 &delta, FilterBankI16 &bank)
{
    Rng rng(seed);
    const bool maximal = seed % 3 == 0;
    delta = TensorI32(cc.c, cc.h, cc.w);
    for (std::size_t i = 0; i < delta.size(); ++i) {
        std::int64_t v = 0;
        if (maximal)
            v = rng.below(2) != 0 ? 65535 : -65535;
        else if (rng.below(100) < 45)
            v = static_cast<std::int64_t>(rng.below(131071)) - 65535;
        delta.data()[i] = static_cast<std::int32_t>(v);
    }
    bank = FilterBankI16(cc.f, cc.c, cc.k, cc.k);
    for (std::size_t i = 0; i < bank.size(); ++i) {
        std::int64_t v = 0;
        if (maximal)
            v = rng.below(2) != 0 ? 32767 : -32768;
        else if (rng.below(3) != 0)
            v = static_cast<std::int64_t>(rng.below(8191)) - 4095;
        bank.data()[i] = static_cast<std::int16_t>(v);
    }
}

/** The delta map narrowed to int16 (values must fit). */
TensorI16
narrowed(const TensorI32 &t)
{
    TensorI16 out(t.shape());
    for (std::size_t i = 0; i < t.size(); ++i)
        out.data()[i] = static_cast<std::int16_t>(t.data()[i]);
    return out;
}

class ConvolveI32Oracle : public ::testing::TestWithParam<simd::Isa>
{
  protected:
    const simd::KernelTable &table() { return *simd::table(GetParam()); }
};

TEST_P(ConvolveI32Oracle, MatchesReferenceBitForBit)
{
    std::uint64_t seed = 1;
    int overflows = 0;
    int compared = 0;
    for (const ConvCase &cc : fuzzCases()) {
        for (int rep = 0; rep < 3; ++rep, ++seed) {
            TensorI32 delta;
            FilterBankI16 bank;
            randomFixedOperands(cc, seed, delta, bank);
            TensorI32 want;
            try {
                want = referenceConvolveI32(delta, bank, cc.stride,
                                            cc.dilation);
            } catch (const std::overflow_error &) {
                ++overflows;
                EXPECT_THROW(convolveTemporalDelta(delta, bank, cc.stride,
                                                   cc.dilation, table()),
                             std::overflow_error)
                    << cc.describe() << " seed=" << seed;
                continue;
            }
            ++compared;
            const TensorI32 got = convolveTemporalDelta(
                delta, bank, cc.stride, cc.dilation, table());
            ASSERT_TRUE(bitIdentical(got, want))
                << cc.describe() << " seed=" << seed;
        }
    }
    // Both regimes must really have been exercised.
    EXPECT_GT(overflows, 50);
    EXPECT_GT(compared, 300);
}

TEST_P(ConvolveI32Oracle, MatchesConvolveDirectOnInt16Maps)
{
    // The anchor path's contract: on int16 values the kernel gives the
    // bits of convolveDirect, the per-frame oracle.
    std::uint64_t seed = 1000;
    for (const ConvCase &cc : fuzzCases()) {
        TensorI32 delta;
        FilterBankI16 bank;
        randomFixedOperands(cc, ++seed, delta, bank);
        for (std::size_t i = 0; i < delta.size(); ++i)
            delta.data()[i] /= 2; // into the int16 range
        const TensorI16 imap = narrowed(delta);
        TensorI32 want;
        try {
            want = convolveDirect(imap, bank, cc.stride, cc.dilation);
        } catch (const std::overflow_error &) {
            EXPECT_THROW(convolveTemporalDelta(delta, bank, cc.stride,
                                               cc.dilation, table()),
                         std::overflow_error)
                << cc.describe() << " seed=" << seed;
            continue;
        }
        ASSERT_TRUE(bitIdentical(convolveTemporalDelta(delta, bank,
                                                       cc.stride,
                                                       cc.dilation,
                                                       table()),
                                 want))
            << cc.describe() << " seed=" << seed;
    }
}

TEST_P(ConvolveI32Oracle, MaximalProductsStayExact)
{
    // One tap per output: +-65535 * {-32768, 32767} reaches
    // -2147450880, inside int32, and must come out exact.
    TensorI32 delta(1, 3, 21);
    for (std::size_t i = 0; i < delta.size(); ++i)
        delta.data()[i] = (i % 3 == 0) ? -65535 : 65535;
    for (std::int16_t w : {std::int16_t{-32768}, std::int16_t{32767}}) {
        FilterBankI16 bank(3, 1, 1, 1, w);
        const TensorI32 want = referenceConvolveI32(delta, bank, 1, 1);
        EXPECT_EQ(want.at(0, 0, 0), -65535 * static_cast<int>(w));
        EXPECT_TRUE(bitIdentical(
            convolveTemporalDelta(delta, bank, 1, 1, table()), want));
    }
    // Partial sums that leave int32 before the total comes back in:
    // three channels of 65535 against 32767, 32767, -32768 sum to
    // 65535 * 32766 in (c, ky, kx) order, past INT32_MAX after two.
    TensorI32 deep(3, 1, 1, 65535);
    FilterBankI16 bank(1, 3, 1, 1, 32767);
    bank.at(0, 2, 0, 0) = -32768;
    const TensorI32 want = referenceConvolveI32(deep, bank, 1, 1);
    EXPECT_EQ(want.at(0, 0, 0), 65535 * 32766);
    EXPECT_TRUE(bitIdentical(
        convolveTemporalDelta(deep, bank, 1, 1, table()), want));
}

TEST_P(ConvolveI32Oracle, PlantedOverflowThrowsWithTheCallersMessage)
{
    // Two 65535 deltas at (c, 2, x), c = 0, 1, meet the only nonzero
    // weights of filter 4, 32767 at each channel's kernel centre: that
    // one output sums to 2 * 65535 * 32767 and leaves int32, nothing
    // else does. It sits in a full tile, in the exact-width tail
    // column of every table (w = 39), or on a strided layer, and must
    // throw on every table with convolveTemporalDelta's message.
    struct Plant
    {
        int w;
        int x;
        int stride;
    };
    for (const Plant p : {Plant{37, 9, 1}, Plant{39, 38, 1},
                          Plant{29, 14, 2}}) {
        TensorI32 delta(2, 5, p.w, 1);
        delta.at(0, 2, p.x) = 65535;
        delta.at(1, 2, p.x) = 65535;
        FilterBankI16 bank(5, 2, 3, 3, 1);
        for (int c = 0; c < 2; ++c)
            for (int ky = 0; ky < 3; ++ky)
                for (int kx = 0; kx < 3; ++kx)
                    bank.at(4, c, ky, kx) = 0;
        bank.at(4, 0, 1, 1) = 32767;
        bank.at(4, 1, 1, 1) = 32767;
        EXPECT_THROW(referenceConvolveI32(delta, bank, p.stride, 1),
                     std::overflow_error);
        bank.at(4, 1, 1, 1) = 0; // one tap fits: no throw anywhere
        EXPECT_TRUE(bitIdentical(
            convolveTemporalDelta(delta, bank, p.stride, 1, table()),
            referenceConvolveI32(delta, bank, p.stride, 1)));
        bank.at(4, 1, 1, 1) = 32767;
        try {
            convolveTemporalDelta(delta, bank, p.stride, 1, table());
            ADD_FAILURE() << "no overflow at w=" << p.w << " x=" << p.x;
        } catch (const std::overflow_error &e) {
            EXPECT_STREQ(e.what(), "temporal conv: accumulator overflow");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableIsas, ConvolveI32Oracle,
    ::testing::ValuesIn(simd::availableIsas()),
    [](const ::testing::TestParamInfo<simd::Isa> &isa_info) {
        return std::string(simd::isaName(isa_info.param));
    });

} // namespace
} // namespace diffy
