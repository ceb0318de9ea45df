#include "common/fixed_point.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace diffy
{

std::int16_t
saturate16(std::int64_t v)
{
    if (v > std::numeric_limits<std::int16_t>::max())
        return std::numeric_limits<std::int16_t>::max();
    if (v < std::numeric_limits<std::int16_t>::min())
        return std::numeric_limits<std::int16_t>::min();
    return static_cast<std::int16_t>(v);
}

std::int32_t
clampToI32(std::int64_t v, const char *what)
{
    if (v > std::numeric_limits<std::int32_t>::max() ||
        v < std::numeric_limits<std::int32_t>::min())
        throw std::overflow_error(what);
    return static_cast<std::int32_t>(v);
}

std::int16_t
quantize16(double v, int frac_bits)
{
    double scaled = v * static_cast<double>(std::int64_t{1} << frac_bits);
    return saturate16(static_cast<std::int64_t>(std::llround(scaled)));
}

double
dequantize16(std::int16_t v, int frac_bits)
{
    return static_cast<double>(v) /
           static_cast<double>(std::int64_t{1} << frac_bits);
}

int
chooseFracBits(double max_abs)
{
    // Need ceil(log2(max_abs)) integer bits plus sign; the rest of the
    // 16-bit budget goes to the fraction. Degenerate all-zero tensors
    // get the maximum fractional precision.
    if (max_abs <= 0.0)
        return 14;
    int int_bits = 0;
    while ((std::int64_t{1} << int_bits) <= static_cast<std::int64_t>(max_abs))
        ++int_bits;
    int frac = 15 - int_bits - 1; // sign + integer part + headroom bit
    if (frac < 0)
        frac = 0;
    if (frac > 14)
        frac = 14;
    return frac;
}

std::vector<std::int16_t>
quantizeBuffer(const std::vector<double> &v, int frac_bits)
{
    std::vector<std::int16_t> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = quantize16(v[i], frac_bits);
    return out;
}

} // namespace diffy
