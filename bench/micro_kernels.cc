/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels: Booth-term
 * counting, the activation codecs, the direct and differential
 * fixed-point convolutions, the whole-layer float and fixed-point
 * convolution kernels, the CRC-32C trace checksum, and the PRA/Diffy
 * pallet walk.
 *
 * The BM_Isa* family is registered at startup once per available
 * kernel table (common/simd.hh), so one run records scalar, SSE4 and
 * AVX2 side by side — that per-ISA speedup is the artifact
 * BENCH_kernels.json tracks across PRs. The dispatched ISA and build
 * flavor go into the JSON context (run_micro.sh refuses debug runs).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/aligned.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/differential_conv.hh"
#include "core/temporal.hh"
#include "encode/schemes.hh"
#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "sim/diffy_sim.hh"
#include "sim/pra.hh"

namespace
{

using namespace diffy;

TensorI16
correlatedTensor(int c, int h, int w)
{
    Rng rng(1234);
    TensorI16 t(c, h, w);
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < h; ++y) {
            std::int32_t level = 500;
            for (int x = 0; x < w; ++x) {
                level += static_cast<std::int32_t>(rng.below(17)) - 8;
                t.at(ch, y, x) = static_cast<std::int16_t>(
                    std::max(0, level));
            }
        }
    }
    return t;
}

void
BM_BoothTerms(benchmark::State &state)
{
    Rng rng(7);
    std::vector<std::int16_t> values(4096);
    for (auto &v : values)
        v = static_cast<std::int16_t>(rng.below(65536) - 32768);
    for (auto _ : state) {
        std::int64_t total = 0;
        for (auto v : values)
            total += boothTerms(v);
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_BoothTerms);

void
BM_BoothTermsPlane(benchmark::State &state)
{
    Rng rng(7);
    std::vector<std::int16_t> values(4096);
    for (auto &v : values)
        v = static_cast<std::int16_t>(rng.below(65536) - 32768);
    std::vector<std::uint8_t> terms(values.size());
    for (auto _ : state) {
        boothTermsPlane(values.data(), terms.data(), values.size());
        benchmark::DoNotOptimize(terms.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_BoothTermsPlane);

void
BM_CodecEncode(benchmark::State &state)
{
    auto scheme = static_cast<Compression>(state.range(0));
    auto codec = makeCodec(scheme, 11);
    TensorI16 t = correlatedTensor(16, 32, 32);
    for (auto _ : state) {
        auto enc = codec->encode(t);
        benchmark::DoNotOptimize(enc.bits);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
    state.SetLabel(codec->name());
}
BENCHMARK(BM_CodecEncode)
    ->Arg(static_cast<int>(Compression::Rlez))
    ->Arg(static_cast<int>(Compression::Rle))
    ->Arg(static_cast<int>(Compression::Profiled))
    ->Arg(static_cast<int>(Compression::RawD16))
    ->Arg(static_cast<int>(Compression::DeltaD16));

void
BM_ConvDirect(benchmark::State &state)
{
    TensorI16 imap = correlatedTensor(16, 32, 32);
    Rng rng(3);
    FilterBankI16 bank(16, 16, 3, 3);
    for (std::size_t i = 0; i < bank.size(); ++i)
        bank.data()[i] = static_cast<std::int16_t>(rng.below(512) - 256);
    for (auto _ : state) {
        auto out = convolveDirect(imap, bank, 1, 1);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ConvDirect);

void
BM_ConvDifferential(benchmark::State &state)
{
    TensorI16 imap = correlatedTensor(16, 32, 32);
    Rng rng(3);
    FilterBankI16 bank(16, 16, 3, 3);
    for (std::size_t i = 0; i < bank.size(); ++i)
        bank.data()[i] = static_cast<std::int16_t>(rng.below(512) - 256);
    for (auto _ : state) {
        auto out = convolveDifferential(imap, bank, 1, 1);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ConvDifferential);

void
BM_PalletWalk(benchmark::State &state)
{
    const bool differential = state.range(0) != 0;
    LayerTrace lt;
    lt.spec.name = "bench";
    lt.spec.inChannels = 64;
    lt.spec.outChannels = 64;
    lt.spec.kernel = 3;
    lt.imap = correlatedTensor(64, 32, 32);
    lt.weights = FilterBankI16(64, 64, 3, 3, 1);
    AcceleratorConfig cfg = defaultDiffyConfig();
    for (auto _ : state) {
        // Walk a fresh copy (a copy starts with no layer facts), so
        // every iteration times the real term tensor build + pallet
        // walk rather than a stored fact. The copy is not timed.
        state.PauseTiming();
        const LayerTrace fresh = lt;
        state.ResumeTiming();
        auto stats = simulateTermSerialLayer(fresh, cfg, differential);
        benchmark::DoNotOptimize(stats.computeCycles);
    }
    state.SetLabel(differential ? "diffy" : "pra");
}
BENCHMARK(BM_PalletWalk)->Arg(0)->Arg(1);

// ---------------------------------------------------------------
// Per-ISA kernel benches: same work, explicit kernel table. One
// instance per availableIsas() is registered in main(), named
// BM_Isa<Kernel>/<isa>, so a single run yields the scalar/SSE4/AVX2
// comparison directly.
// ---------------------------------------------------------------

AlignedVec<std::int16_t>
randomI16Plane(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    AlignedVec<std::int16_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int16_t>(rng.below(65536) - 32768);
    return v;
}

void
BM_IsaBoothTermsPlane(benchmark::State &state,
                      const simd::KernelTable *kt)
{
    const auto values = randomI16Plane(4096, 7);
    AlignedVec<std::uint8_t> terms(values.size());
    for (auto _ : state) {
        kt->boothTermsPlane16(values.data(), terms.data(), values.size());
        benchmark::DoNotOptimize(terms.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}

void
BM_IsaBitsNeededPlane(benchmark::State &state,
                      const simd::KernelTable *kt)
{
    const auto values = randomI16Plane(4096, 7);
    AlignedVec<std::uint8_t> bits(values.size());
    for (auto _ : state) {
        kt->bitsNeededPlane16(values.data(), bits.data(), values.size());
        benchmark::DoNotOptimize(bits.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}

void
BM_IsaDeltaBits(benchmark::State &state, const simd::KernelTable *kt)
{
    const auto prev = randomI16Plane(4096, 11);
    const auto cur = randomI16Plane(4096, 12);
    AlignedVec<std::int32_t> deltas(prev.size());
    for (auto _ : state) {
        int bits = kt->deltaBits16(prev.data(), cur.data(),
                                   deltas.data(), prev.size());
        benchmark::DoNotOptimize(bits);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(prev.size()));
}

void
BM_IsaWalkSumMax(benchmark::State &state, const simd::KernelTable *kt)
{
    // The pallet geometry of BM_PalletWalk's hot call: 16 channel
    // rows, a 32x32 plane per channel, 16-column blocks at stride 1.
    constexpr std::size_t kRowStride = 32 * 32;
    constexpr std::size_t kRows = 16;
    constexpr int kCols = 16;
    Rng rng(13);
    AlignedVec<std::uint8_t> plane(kRows * kRowStride);
    for (auto &b : plane)
        b = static_cast<std::uint8_t>(rng.below(18));
    std::uint8_t col_max[kCols];
    for (auto _ : state) {
        std::int64_t total = 0;
        for (std::size_t off = 0; off + kCols <= kRowStride;
             off += kCols) {
            total += kt->walkSumMax(plane.data() + off, kRowStride,
                                    kRows, 1, col_max, kCols);
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(kRows * kRowStride));
}

void
BM_IsaCrc32c(benchmark::State &state, const simd::KernelTable *kt)
{
    // An 8 MiB block: the size class of a trace-cache body's tensors.
    Rng rng(31);
    AlignedVec<unsigned char> buf(std::size_t{8} << 20);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.below(256));
    for (auto _ : state) {
        std::uint32_t crc = kt->crc32c(buf.data(), buf.size(), 0);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}

void
BM_IsaConvolveF32(benchmark::State &state, const simd::KernelTable *kt)
{
    // A CI-DNN body layer: 64 -> 64 channels, 3x3, on a 32x32 plane.
    constexpr int kChannels = 64;
    constexpr int kSize = 32;
    Rng rng(17);
    Tensor3<float> in(kChannels, kSize, kSize);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(std::max(0.0, rng.gaussian()));
    Tensor4<float> w(kChannels, kChannels, 3, 3);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.gaussian(0.0, 0.06));
    for (auto _ : state) {
        Tensor3<float> out = convolve(in, w, 1, 1, *kt);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kChannels * kChannels *
                            9 * kSize * kSize);
}

void
BM_IsaConvolveI32(benchmark::State &state, const simd::KernelTable *kt)
{
    // A served MicroServe body layer on a temporal delta: 8 -> 8
    // channels, 3x3, 64x64, with the pan workload's delta density
    // (about 0.45 nonzero) and 17-bit magnitudes.
    constexpr int kChannels = 8;
    constexpr int kSize = 64;
    Rng rng(29);
    TensorI32 delta(kChannels, kSize, kSize);
    for (std::size_t i = 0; i < delta.size(); ++i) {
        if (rng.below(100) < 45)
            delta.data()[i] = static_cast<std::int32_t>(
                std::clamp(rng.gaussian(0.0, 3000.0), -65535.0, 65535.0));
    }
    FilterBankI16 bank(kChannels, kChannels, 3, 3);
    for (std::size_t i = 0; i < bank.size(); ++i)
        bank.data()[i] = static_cast<std::int16_t>(rng.gaussian(0.0, 900.0));
    for (auto _ : state) {
        TensorI32 out = convolveTemporalDelta(delta, bank, 1, 1, *kt);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kChannels * kChannels *
                            9 * kSize * kSize);
}

void
registerPerIsaBenches()
{
    for (simd::Isa isa : simd::availableIsas()) {
        const simd::KernelTable *kt = simd::table(isa);
        const std::string suffix = std::string("/") + simd::isaName(isa);
        benchmark::RegisterBenchmark(
            ("BM_IsaBoothTermsPlane" + suffix).c_str(),
            BM_IsaBoothTermsPlane, kt);
        benchmark::RegisterBenchmark(
            ("BM_IsaBitsNeededPlane" + suffix).c_str(),
            BM_IsaBitsNeededPlane, kt);
        benchmark::RegisterBenchmark(
            ("BM_IsaDeltaBits" + suffix).c_str(), BM_IsaDeltaBits, kt);
        benchmark::RegisterBenchmark(
            ("BM_IsaWalkSumMax" + suffix).c_str(), BM_IsaWalkSumMax, kt);
        benchmark::RegisterBenchmark(
            ("BM_IsaCrc32c" + suffix).c_str(), BM_IsaCrc32c, kt);
        benchmark::RegisterBenchmark(
            ("BM_IsaConvolveF32" + suffix).c_str(), BM_IsaConvolveF32,
            kt);
        benchmark::RegisterBenchmark(
            ("BM_IsaConvolveI32" + suffix).c_str(), BM_IsaConvolveI32,
            kt);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerPerIsaBenches();
    // JSON context for regression tracking: which table actually
    // dispatched, whether DIFFY_ISA forced it, and the build flavor
    // (run_micro.sh fails the run unless diffy_build == "release").
    benchmark::AddCustomContext("diffy_isa",
                                simd::isaName(simd::activeIsa()));
    const char *env = std::getenv("DIFFY_ISA");
    benchmark::AddCustomContext("diffy_isa_env", env ? env : "");
#if defined(DIFFY_NATIVE_BUILD)
    benchmark::AddCustomContext("diffy_native", "1");
#else
    benchmark::AddCustomContext("diffy_native", "0");
#endif
#if defined(NDEBUG)
    benchmark::AddCustomContext("diffy_build", "release");
#else
    benchmark::AddCustomContext("diffy_build", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
