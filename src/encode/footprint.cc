#include "encode/footprint.hh"

#include "analysis/precision.hh"
#include "encode/schemes.hh"

namespace diffy
{

namespace
{

/** Schemes whose size does not depend on the imap's values. */
bool
sizeIsValueFree(Compression scheme)
{
    return scheme == Compression::None || scheme == Compression::Ideal ||
           scheme == Compression::Profiled;
}

/**
 * Bits/value of the layer's imap under a scheme. combineWithMemory asks
 * once per tile x memory point, so the value-dependent schemes are
 * measured once per layer, as layer facts; value-free schemes are
 * cheaper to answer than to look up.
 */
double
measuredBitsPerValue(const LayerTrace &layer, Compression scheme,
                     int profiled_bits)
{
    if (sizeIsValueFree(scheme))
        return makeCodec(scheme, profiled_bits)->bitsPerValue(layer.imap);
    const FactKey key{FactKind::BitsPerValue, static_cast<int>(scheme),
                      profiled_bits};
    return layer.facts.get(key, [&] {
        return LayerFacts::Value{
            makeCodec(scheme, profiled_bits)->bitsPerValue(layer.imap)};
    })[0];
}

/** Profiled precision of one layer's imap (self-profiled fallback). */
int
layerProfiledBits(const LayerTrace &layer)
{
    return static_cast<int>(
        layer.facts.get(FactKey{FactKind::ProfiledBits}, [&] {
            PrecisionProfiler profiler;
            profiler.addLayer(0, layer.imap);
            return LayerFacts::Value{
                static_cast<double>(profiler.layerPrecision(0))};
        })[0]);
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
        lf.bitsPerValue = measuredBitsPerValue(layer, scheme, prof_bits);
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
