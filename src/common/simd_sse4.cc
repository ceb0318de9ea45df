/**
 * @file
 * SSE4 kernel table: the shared 128-bit implementations, compiled
 * with -msse4.2 in this TU only. Reached on x86 hosts without AVX2
 * (or via DIFFY_ISA=sse4).
 */

#include "common/simd.hh"
#include "common/simd_x86.hh"

namespace diffy::simd::detail
{

const KernelTable &
sse4Table()
{
    static const KernelTable t = {
        Isa::Sse4,          &x86::boothPlane16, &x86::boothPlane32,
        &x86::bitsPlane16,  &x86::bitsPlane32,  &x86::groupBits16,
        &x86::groupBits32,  &x86::deltaBits16,  &x86::addSat16,
        &x86::walkSumMax,   &x86::crc32c,
        &x86::convolveF32<x86::F32x4>, &x86::convolve<x86::I64x2>,
    };
    return t;
}

} // namespace diffy::simd::detail
