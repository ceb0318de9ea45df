#include "core/differential_conv.hh"

#include <stdexcept>
#include <string>

#include "common/bitops.hh"
#include "common/fixed_point.hh"
#include "common/simd.hh"

namespace diffy
{

simd::ConvGeometry
fixedConvGeometry(const Shape3 &in, const FilterBankI16 &bank, int stride,
                  int dilation, const char *who)
{
    if (bank.channels() != in.c)
        throw std::invalid_argument(std::string(who) +
                                    ": channel mismatch");
    if (bank.height() != bank.width())
        throw std::invalid_argument(std::string(who) +
                                    ": non-square kernel");
    return simd::sameConvGeometry(in.c, bank.filters(), in.h, in.w,
                                  bank.height(), stride, dilation);
}

namespace
{

constexpr const char *kOverflow = "conv: accumulator overflow";

/** Inner product of one window against one filter, 64-bit exact. */
std::int64_t
windowDot(const TensorI16 &imap, const FilterBankI16 &bank, int f, int oy,
          int ox, int stride, int dilation, int pad)
{
    const int k = bank.height();
    std::int64_t acc = 0;
    for (int c = 0; c < imap.channels(); ++c) {
        for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky * dilation - pad;
            if (iy < 0 || iy >= imap.height())
                continue;
            for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * stride + kx * dilation - pad;
                if (ix < 0 || ix >= imap.width())
                    continue;
                acc += static_cast<std::int64_t>(imap.at(c, iy, ix)) *
                       bank.at(f, c, ky, kx);
            }
        }
    }
    return acc;
}

/**
 * Inner product of the delta window (window at ox minus window at
 * ox-1) against one filter. Out-of-bounds taps read zero padding.
 */
std::int64_t
deltaWindowDot(const TensorI16 &imap, const FilterBankI16 &bank, int f,
               int oy, int ox, int stride, int dilation, int pad)
{
    const int k = bank.height();
    std::int64_t acc = 0;
    for (int c = 0; c < imap.channels(); ++c) {
        for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky * dilation - pad;
            if (iy < 0 || iy >= imap.height())
                continue;
            for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * stride + kx * dilation - pad;
                const int ix_prev = ix - stride;
                std::int32_t cur =
                    (ix >= 0 && ix < imap.width()) ? imap.at(c, iy, ix)
                                                   : 0;
                std::int32_t prev =
                    (ix_prev >= 0 && ix_prev < imap.width())
                        ? imap.at(c, iy, ix_prev)
                        : 0;
                if (cur == prev)
                    continue;
                acc += static_cast<std::int64_t>(cur - prev) *
                       bank.at(f, c, ky, kx);
            }
        }
    }
    return acc;
}

} // namespace

TensorI32
convolveDirect(const TensorI16 &imap, const FilterBankI16 &bank,
               int stride, int dilation)
{
    const simd::ConvGeometry g =
        fixedConvGeometry(imap.shape(), bank, stride, dilation, "conv");
    const int pad = g.pad;
    const int out_h = g.outH;
    const int out_w = g.outW;

    TensorI32 out(g.filters, out_h, out_w, scratchAlloc<std::int32_t>());
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
                out.at(f, oy, ox) = clampToI32(
                    windowDot(imap, bank, f, oy, ox, stride, dilation,
                              pad),
                    kOverflow);
            }
        }
    }
    return out;
}

TensorI32
convolveDifferential(const TensorI16 &imap, const FilterBankI16 &bank,
                     int stride, int dilation)
{
    const simd::ConvGeometry g =
        fixedConvGeometry(imap.shape(), bank, stride, dilation, "conv");
    const int pad = g.pad;
    const int out_h = g.outH;
    const int out_w = g.outW;

    TensorI32 out(g.filters, out_h, out_w, scratchAlloc<std::int32_t>());
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < out_h; ++oy) {
            // Phase 1: leftmost output directly, the rest as
            // differential terms <W, delta window>.
            std::int64_t base = windowDot(imap, bank, f, oy, 0, stride,
                                          dilation, pad);
            out.at(f, oy, 0) = clampToI32(base, kOverflow);
            for (int ox = 1; ox < out_w; ++ox) {
                std::int64_t diff = deltaWindowDot(
                    imap, bank, f, oy, ox, stride, dilation, pad);
                // Phase 2 (cascaded reconstruction), fused here.
                base += diff;
                out.at(f, oy, ox) = clampToI32(base, kOverflow);
            }
        }
    }
    return out;
}

namespace
{

/**
 * Inner product of the Y-delta window (window at oy minus window at
 * oy-1) against one filter.
 */
std::int64_t
deltaWindowDotY(const TensorI16 &imap, const FilterBankI16 &bank, int f,
                int oy, int ox, int stride, int dilation, int pad)
{
    const int k = bank.height();
    std::int64_t acc = 0;
    for (int c = 0; c < imap.channels(); ++c) {
        for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky * dilation - pad;
            const int iy_prev = iy - stride;
            const bool cur_in = iy >= 0 && iy < imap.height();
            const bool prev_in = iy_prev >= 0 && iy_prev < imap.height();
            if (!cur_in && !prev_in)
                continue;
            for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * stride + kx * dilation - pad;
                if (ix < 0 || ix >= imap.width())
                    continue;
                std::int32_t cur = cur_in ? imap.at(c, iy, ix) : 0;
                std::int32_t prev =
                    prev_in ? imap.at(c, iy_prev, ix) : 0;
                if (cur == prev)
                    continue;
                acc += static_cast<std::int64_t>(cur - prev) *
                       bank.at(f, c, ky, kx);
            }
        }
    }
    return acc;
}

} // namespace

TensorI32
convolveDifferentialY(const TensorI16 &imap, const FilterBankI16 &bank,
                      int stride, int dilation)
{
    const simd::ConvGeometry g =
        fixedConvGeometry(imap.shape(), bank, stride, dilation, "conv");
    const int pad = g.pad;
    const int out_h = g.outH;
    const int out_w = g.outW;

    TensorI32 out(g.filters, out_h, out_w, scratchAlloc<std::int32_t>());
    for (int f = 0; f < bank.filters(); ++f) {
        for (int ox = 0; ox < out_w; ++ox) {
            std::int64_t base = windowDot(imap, bank, f, 0, ox, stride,
                                          dilation, pad);
            out.at(f, 0, ox) = clampToI32(base, kOverflow);
            for (int oy = 1; oy < out_h; ++oy) {
                base += deltaWindowDotY(imap, bank, f, oy, ox, stride,
                                        dilation, pad);
                out.at(f, oy, ox) = clampToI32(base, kOverflow);
            }
        }
    }
    return out;
}

ConvWorkCount
countDifferentialWorkY(const TensorI16 &imap, const FilterBankI16 &bank,
                       int stride, int dilation)
{
    const simd::ConvGeometry g =
        fixedConvGeometry(imap.shape(), bank, stride, dilation, "conv");
    const int k = g.kernel;
    const int pad = g.pad;
    const int out_h = g.outH;
    const int out_w = g.outW;

    ConvWorkCount wc;
    const std::uint64_t filters =
        static_cast<std::uint64_t>(bank.filters());
    for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
            for (int c = 0; c < imap.channels(); ++c) {
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy * stride + ky * dilation - pad;
                    for (int kx = 0; kx < k; ++kx) {
                        const int ix =
                            ox * stride + kx * dilation - pad;
                        if (ix < 0 || ix >= imap.width())
                            continue;
                        std::int32_t cur =
                            (iy >= 0 && iy < imap.height())
                                ? imap.at(c, iy, ix)
                                : 0;
                        std::int32_t value = cur;
                        if (oy > 0) {
                            const int iyp = iy - stride;
                            std::int32_t prev =
                                (iyp >= 0 && iyp < imap.height())
                                    ? imap.at(c, iyp, ix)
                                    : 0;
                            value = cur - prev;
                        }
                        if (iy < 0 || iy >= imap.height()) {
                            if (oy == 0)
                                continue; // true padding zero
                        }
                        wc.multiplierTerms +=
                            static_cast<std::uint64_t>(
                                boothTerms(value)) *
                            filters;
                        wc.macs += filters;
                    }
                }
            }
        }
    }
    return wc;
}

namespace
{

template <bool kDifferential>
ConvWorkCount
countWork(const TensorI16 &imap, const FilterBankI16 &bank, int stride,
          int dilation)
{
    const simd::ConvGeometry g =
        fixedConvGeometry(imap.shape(), bank, stride, dilation, "conv");
    const int k = g.kernel;
    const int pad = g.pad;
    const int out_h = g.outH;
    const int out_w = g.outW;

    ConvWorkCount wc;
    // Work is identical across filters; count one filter's stream and
    // scale, since the activation term content does not depend on f.
    const std::uint64_t filters =
        static_cast<std::uint64_t>(bank.filters());
    for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
            for (int c = 0; c < imap.channels(); ++c) {
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy * stride + ky * dilation - pad;
                    if (iy < 0 || iy >= imap.height())
                        continue;
                    for (int kx = 0; kx < k; ++kx) {
                        const int ix =
                            ox * stride + kx * dilation - pad;
                        std::int32_t cur =
                            (ix >= 0 && ix < imap.width())
                                ? imap.at(c, iy, ix)
                                : 0;
                        std::int32_t value = cur;
                        if (kDifferential && ox > 0) {
                            const int ixp = ix - stride;
                            std::int32_t prev =
                                (ixp >= 0 && ixp < imap.width())
                                    ? imap.at(c, iy, ixp)
                                    : 0;
                            value = cur - prev;
                        }
                        wc.multiplierTerms +=
                            static_cast<std::uint64_t>(
                                boothTerms(value)) *
                            filters;
                        wc.macs += filters;
                    }
                }
            }
        }
    }
    return wc;
}

} // namespace

ConvWorkCount
countDirectWork(const TensorI16 &imap, const FilterBankI16 &bank,
                int stride, int dilation)
{
    return countWork<false>(imap, bank, stride, dilation);
}

ConvWorkCount
countDifferentialWork(const TensorI16 &imap, const FilterBankI16 &bank,
                      int stride, int dilation)
{
    return countWork<true>(imap, bank, stride, dilation);
}

} // namespace diffy
