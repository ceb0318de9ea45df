#include "encode/footprint.hh"

#include <unordered_map>

#include "analysis/precision.hh"
#include "common/bitops.hh"
#include "common/cache_registry.hh"
#include "encode/schemes.hh"

namespace diffy
{

namespace
{

/** Memo key of one bits/value measurement. */
struct BitsKey
{
    std::uint64_t contentHash = 0;
    std::size_t values = 0;
    Compression scheme = Compression::None;
    int profiledBits = 16;

    bool operator==(const BitsKey &o) const = default;
};

struct BitsKeyHash
{
    std::size_t
    operator()(const BitsKey &k) const noexcept
    {
        // contentHash is already avalanched; the other fields only
        // need to land in distinct buckets.
        return static_cast<std::size_t>(
            k.contentHash ^
            (static_cast<std::uint64_t>(k.scheme) * 0x9E3779B97F4A7C15ULL) ^
            (static_cast<std::uint64_t>(k.profiledBits) << 32));
    }
};

// thread_local: memoized pure functions; keeps sweep workers
// lock-free (see DESIGN.md §8 shared-state audit). Cleared through
// the central registry (DESIGN.md §10, rule R2).
std::unordered_map<BitsKey, double, BitsKeyHash> &
bitsPerValueCache()
{
    thread_local std::unordered_map<BitsKey, double, BitsKeyHash> cache;
    return cache;
}

std::unordered_map<std::uint64_t, int> &
profiledBitsCache()
{
    thread_local std::unordered_map<std::uint64_t, int> cache;
    return cache;
}

/** Schemes whose size does not depend on the imap's values. */
bool
sizeIsValueFree(Compression scheme)
{
    return scheme == Compression::None || scheme == Compression::Ideal ||
           scheme == Compression::Profiled;
}

/**
 * Memoized bits/value measurements. The sweep benches query the same
 * (imap, scheme) pairs many times over (combineWithMemory asks once
 * per tile x memory point), so the value-dependent schemes are sized
 * once per thread. Value-free schemes skip the memo: hashing the imap
 * would cost more than the answer.
 */
double
measuredBitsPerValue(const TensorI16 &imap, Compression scheme,
                     int profiled_bits)
{
    if (sizeIsValueFree(scheme))
        return makeCodec(scheme, profiled_bits)->bitsPerValue(imap);
    auto &cache = bitsPerValueCache();
    const BitsKey key{contentHash64(imap.data(),
                                    imap.size() * sizeof(std::int16_t)),
                      imap.size(), scheme, profiled_bits};
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    double bpv = makeCodec(scheme, profiled_bits)->bitsPerValue(imap);
    cache.emplace(key, bpv);
    return bpv;
}

/** Profiled precision of one layer's imap (self-profiled fallback). */
int
layerProfiledBits(const LayerTrace &layer)
{
    auto &cache = profiledBitsCache();
    std::uint64_t key = contentHash64(
        layer.imap.data(), layer.imap.size() * sizeof(std::int16_t));
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    PrecisionProfiler profiler;
    profiler.addLayer(0, layer.imap);
    int bits = profiler.layerPrecision(0);
    cache.emplace(key, bits);
    return bits;
}

/** Spatial value count of the layer's imap at the frame resolution. */
double
imapValuesAtFrame(const LayerTrace &layer, int frame_h, int frame_w)
{
    double h = static_cast<double>(frame_h) / layer.spec.resolutionDivisor;
    double w = static_cast<double>(frame_w) / layer.spec.resolutionDivisor;
    return static_cast<double>(layer.spec.inChannels) * h * w;
}

/** Output value count at frame resolution (the produced omap). */
double
omapValuesAtFrame(const LayerTrace &layer, int frame_h, int frame_w)
{
    double div = static_cast<double>(layer.spec.resolutionDivisor) *
                 layer.spec.stride;
    double h = static_cast<double>(frame_h) / div;
    double w = static_cast<double>(frame_w) / div;
    return static_cast<double>(layer.spec.outChannels) * h * w;
}

} // namespace

void
clearFootprintCaches()
{
    bitsPerValueCache().clear();
    profiledBitsCache().clear();
}

DIFFY_REGISTER_THREAD_CACHE(encode_footprint_memos, clearFootprintCaches);

double
NetworkFootprint::totalBits() const
{
    double bits = 0.0;
    for (const auto &layer : layers)
        bits += static_cast<double>(layer.values) * layer.bitsPerValue;
    return bits;
}

double
NetworkFootprint::normalizedTo16b() const
{
    double raw = 0.0;
    for (const auto &layer : layers)
        raw += static_cast<double>(layer.values) * 16.0;
    return raw > 0.0 ? totalBits() / raw : 0.0;
}

NetworkFootprint
measureFootprint(const NetworkTrace &trace, Compression scheme,
                 const std::vector<int> &profile)
{
    NetworkFootprint fp;
    fp.scheme = scheme;
    fp.layers.reserve(trace.layers.size());
    for (std::size_t li = 0; li < trace.layers.size(); ++li) {
        const LayerTrace &layer = trace.layers[li];
        int prof_bits = 16;
        if (scheme == Compression::Profiled)
            prof_bits = li < profile.size() ? profile[li]
                                            : layerProfiledBits(layer);
        LayerFootprint lf;
        lf.layerName = layer.spec.name;
        lf.values = layer.imap.size();
        lf.bitsPerValue =
            measuredBitsPerValue(layer.imap, scheme, prof_bits);
        lf.profiledBits = prof_bits;
        fp.layers.push_back(lf);
    }
    return fp;
}

std::vector<double>
perLayerTrafficBytes(const NetworkTrace &trace, Compression scheme,
                     int frame_h, int frame_w,
                     const std::vector<int> &profile)
{
    NetworkFootprint fp = measureFootprint(trace, scheme, profile);
    std::vector<double> traffic(trace.layers.size(), 0.0);
    for (std::size_t li = 0; li < trace.layers.size(); ++li) {
        const LayerTrace &layer = trace.layers[li];
        double bytes = static_cast<double>(layer.spec.layerWeightBytes());
        // imap read at this layer's measured compression ratio.
        bytes += imapValuesAtFrame(layer, frame_h, frame_w) *
                 fp.layers[li].bitsPerValue / 8.0;
        // omap write: the next layer's imap measures its compressed
        // size; the final layer's omap is charged at its own ratio.
        double omap_bpv = li + 1 < fp.layers.size()
                              ? fp.layers[li + 1].bitsPerValue
                              : fp.layers[li].bitsPerValue;
        bytes += omapValuesAtFrame(layer, frame_h, frame_w) * omap_bpv /
                 8.0;
        traffic[li] = bytes;
    }
    return traffic;
}

double
frameTrafficBytes(const NetworkTrace &trace, Compression scheme,
                  int frame_h, int frame_w,
                  const std::vector<int> &profile)
{
    double total = 0.0;
    for (double t :
         perLayerTrafficBytes(trace, scheme, frame_h, frame_w, profile))
        total += t;
    return total;
}

double
amRequiredBytes(const NetworkTrace &trace, Compression scheme,
                int frame_w,
                const std::vector<int> &profile)
{
    NetworkFootprint fp = measureFootprint(trace, scheme, profile);
    double worst = 0.0;
    for (std::size_t li = 0; li < trace.layers.size(); ++li) {
        const LayerTrace &layer = trace.layers[li];
        // Two complete rows of windows need (effective kernel + stride)
        // input rows at this layer's resolution.
        int rows = layer.spec.effectiveKernel() + layer.spec.stride;
        double width = static_cast<double>(frame_w) /
                       layer.spec.resolutionDivisor;
        double bytes = static_cast<double>(layer.spec.inChannels) * rows *
                       width * fp.layers[li].bitsPerValue / 8.0;
        if (bytes > worst)
            worst = bytes;
    }
    return worst;
}

} // namespace diffy
