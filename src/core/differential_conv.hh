/**
 * @file
 * Differential Convolution (the paper's core algorithm, Section III-C).
 *
 * Given the inner product o(x) = <W, window(x)>, the next output along
 * the row can be computed relative to it:
 *
 *   o(x+1) = o(x) + <W, window(x+1) - window(x)>            (Eq. 4)
 *
 * Because convolution is linear, this is *algebraically exact* in
 * integer arithmetic: the reference implementation here computes only
 * the leftmost output of each row directly and every other output
 * differentially, and the test suite checks bit-exact equality against
 * direct fixed-point convolution for all strides and dilations.
 */

#ifndef DIFFY_CORE_DIFFERENTIAL_CONV_HH
#define DIFFY_CORE_DIFFERENTIAL_CONV_HH

#include <cstdint>

#include "common/simd.hh"
#include "tensor/tensor.hh"

namespace diffy
{

/**
 * Same-padding geometry of a fixed-point convolution of a map of
 * shape @p in by @p bank, after the shape checks every fixed-point
 * path shares (channel count, square kernel). Errors carry @p who as
 * their prefix.
 */
simd::ConvGeometry fixedConvGeometry(const Shape3 &in,
                                     const FilterBankI16 &bank, int stride,
                                     int dilation, const char *who);

/**
 * Direct fixed-point convolution with same-padding.
 * Accumulation is in 64-bit; no rescaling is applied.
 */
TensorI32 convolveDirect(const TensorI16 &imap, const FilterBankI16 &bank,
                         int stride, int dilation);

/**
 * Differential fixed-point convolution: leftmost output of each row
 * computed directly, all subsequent outputs via Eq. 4. Produces
 * bit-identical results to convolveDirect().
 */
TensorI32 convolveDifferential(const TensorI16 &imap,
                               const FilterBankI16 &bank, int stride,
                               int dilation);

/**
 * Differential convolution along the H (Y) dimension — the paper
 * notes Eq. 4 applies "along the H or the W dimensions". The topmost
 * output of each column is computed directly, subsequent outputs
 * relative to the window one stride above. Bit-identical to
 * convolveDirect().
 */
TensorI32 convolveDifferentialY(const TensorI16 &imap,
                                const FilterBankI16 &bank, int stride,
                                int dilation);

/**
 * Work counters for one convolution pass, in effectual Booth terms —
 * the unit a term-serial accelerator pays per cycle and lane.
 */
struct ConvWorkCount
{
    std::uint64_t multiplierTerms = 0; ///< terms fed to multipliers
    std::uint64_t macs = 0;            ///< multiply-accumulates issued
};

/** Count the term work of a direct convolution pass. */
ConvWorkCount countDirectWork(const TensorI16 &imap,
                              const FilterBankI16 &bank, int stride,
                              int dilation);

/** Count the term work of a differential convolution pass. */
ConvWorkCount countDifferentialWork(const TensorI16 &imap,
                                    const FilterBankI16 &bank, int stride,
                                    int dilation);

/** Count the term work of a Y-direction differential pass. */
ConvWorkCount countDifferentialWorkY(const TensorI16 &imap,
                                     const FilterBankI16 &bank, int stride,
                                     int dilation);

} // namespace diffy

#endif // DIFFY_CORE_DIFFERENTIAL_CONV_HH
