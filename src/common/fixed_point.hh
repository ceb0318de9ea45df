/**
 * @file
 * 16-bit fixed-point helpers.
 *
 * All accelerators modeled in this repository (VAA, PRA, Diffy, SCNN)
 * operate on 16-bit fixed-point activations and weights, matching the
 * paper's Table IV configurations. Scales are expressed as a number of
 * fractional bits so that quantization is a pure shift and all
 * arithmetic stays in integers.
 */

#ifndef DIFFY_COMMON_FIXED_POINT_HH
#define DIFFY_COMMON_FIXED_POINT_HH

#include <cstdint>
#include <vector>

namespace diffy
{

/** Saturate @p v to the int16 range. */
std::int16_t saturate16(std::int64_t v);

/**
 * Narrow an exact int64 accumulator to int32, throwing
 * std::overflow_error(@p what) when it does not fit: the fixed-point
 * convolutions keep a hard check rather than wrapping silently.
 */
std::int32_t clampToI32(std::int64_t v, const char *what);

/** Quantize a real value to Q(15 - fracBits).fracBits with saturation. */
std::int16_t quantize16(double v, int frac_bits);

/** Reconstruct the real value of a fixed-point quantity. */
double dequantize16(std::int16_t v, int frac_bits);

/**
 * Pick the largest fractional-bit count such that @p max_abs is
 * representable in 16 bits. Used for per-layer rescaling in the
 * quantized executor.
 */
int chooseFracBits(double max_abs);

/** Quantize a whole buffer with one shared scale. */
std::vector<std::int16_t> quantizeBuffer(const std::vector<double> &v,
                                         int frac_bits);

} // namespace diffy

#endif // DIFFY_COMMON_FIXED_POINT_HH
