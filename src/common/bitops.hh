/**
 * @file
 * Bit-level utilities shared across the Diffy code base.
 *
 * The central primitive is boothTerms(), which counts the number of
 * effectual terms of a value under the modified-Booth / canonical
 * signed-digit recoding used by Bit-Pragmatic style accelerators
 * (PRA, and by extension Diffy). A term-serial inner-product unit
 * spends one cycle per effectual term, so these counts directly
 * drive the cycle-level timing models in src/sim.
 */

#ifndef DIFFY_COMMON_BITOPS_HH
#define DIFFY_COMMON_BITOPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace diffy
{

/**
 * Count the effectual terms of @p v under canonical-signed-digit
 * (non-adjacent form) recoding. This is the number of +/- powers of
 * two a PRA-style serial inner product unit must process. Zero has
 * zero terms. The count is symmetric: boothTerms(v) == boothTerms(-v).
 *
 * Computed bit-parallel as popcount(v ^ 3v): the NAF digit at
 * position i is nonzero exactly where v and 3v differ, so the whole
 * count is O(1) instead of one iteration per signed digit.
 *
 * @param v Two's complement value (any 16-bit quantity fits).
 * @return Number of nonzero signed digits in the NAF of v.
 */
int boothTerms(std::int64_t v);

/**
 * Batched boothTerms() over a contiguous value plane:
 * dst[i] = boothTerms(src[i]) for i in [0, n). The int16 overload is
 * the term-tensor producer of the cycle simulators; the int32
 * overload serves differential streams, whose deltas need 17 bits.
 * Branch-free and auto-vectorizable; NAF counts of 16/32-bit values
 * always fit a uint8.
 */
void boothTermsPlane(const std::int16_t *src, std::uint8_t *dst,
                     std::size_t n);
void boothTermsPlane(const std::int32_t *src, std::uint8_t *dst,
                     std::size_t n);

/**
 * Decompose @p v into its canonical-signed-digit terms.
 *
 * Each element encodes one effectual term as (exponent, sign):
 * positive entries e mean +2^e, negative entries -(e+1) mean -2^e.
 * Summing the decoded terms reconstructs v exactly; tests rely on
 * this round-trip.
 *
 * @param v Value to decompose.
 * @return Encoded term list, most significant first.
 */
std::vector<int> boothDecompose(std::int64_t v);

/** Reconstruct a value from the encoding produced by boothDecompose(). */
std::int64_t boothReconstruct(const std::vector<int> &terms);

/**
 * Count the set bits of the magnitude of @p v — the effectual terms
 * of a plain (non-Booth) bit-serial design.
 */
int onesTerms(std::int64_t v);

/**
 * Minimum two's complement width able to represent @p v,
 * including the sign bit. bitsNeeded(0) == 1.
 */
int bitsNeeded(std::int64_t v);

/**
 * Batched bitsNeeded() over a contiguous value plane:
 * dst[i] = bitsNeeded(src[i]). Feeds the precision-serial (Dynamic
 * Stripes style) cost tensors the same way boothTermsPlane() feeds
 * the term-serial ones.
 */
void bitsNeededPlane(const std::int16_t *src, std::uint8_t *dst,
                     std::size_t n);
void bitsNeededPlane(const std::int32_t *src, std::uint8_t *dst,
                     std::size_t n);

/**
 * Minimum two's complement width able to represent every element of
 * @p group. Used by the dynamic per-group precision detectors
 * (RawD16 / DeltaD16 style schemes). Empty groups need 1 bit.
 */
int groupBitsNeeded(const std::int16_t *group, std::size_t n);

/**
 * CRC-32C (Castagnoli polynomial, as used by iSCSI/ext4) over @p bytes
 * bytes of @p data. This is a *stable wire checksum*: the value is
 * part of the on-disk trace format and the EncodedTensor integrity
 * footer, so it must never change across library versions.
 * Chain incremental computation by passing a previous result as
 * @p crc; crc32c("123456789") == 0xE3069283.
 */
std::uint32_t crc32c(const void *data, std::size_t bytes,
                     std::uint32_t crc = 0);

} // namespace diffy

#endif // DIFFY_COMMON_BITOPS_HH
