#include "nn/trace.hh"

#include <memory>
#include <stdexcept>
#include <string>

#include "nn/envelope.hh"
#include "nn/once_map.hh"
#include "obs/metrics.hh"

namespace diffy
{

/** The facts of one layer; created by the first query. */
struct LayerFacts::State
{
    OnceMap<FactKey, Value> facts;
};

LayerFacts &
LayerFacts::operator=(LayerFacts o) noexcept
{
    delete state_.exchange(o.state_.exchange(nullptr));
    return *this;
}

LayerFacts::~LayerFacts()
{
    delete state_.load();
}

LayerFacts::Value
LayerFacts::lookup(const FactKey &key, Value (*compute)(const void *),
                   const void *fn) const
{
    State *state = state_.load();
    if (state == nullptr) {
        auto fresh = std::make_unique<State>();
        // On a lost race, state receives the winner's pointer.
        if (state_.compare_exchange_strong(state, fresh.get()))
            state = fresh.release();
    }
    static obs::Counter &waited =
        obs::MetricsRegistry::instance().counter("facts.wait_micros");
    return state->facts.get(
        key,
        [&] {
            const Value value = compute(fn);
            auto &reg = obs::MetricsRegistry::instance();
            static obs::Counter *const fills[] = { // in FactKind order
                &reg.counter("encode.precisions_profiled"),
                &reg.counter("encode.bits_measured"),
                &reg.counter("sim.walks")};
            fills[static_cast<std::size_t>(key.kind)]->add(1);
            return value;
        },
        &waited);
}

double
LayerTrace::weightDensity() const
{
    const WeightBank *bank = weights.get();
    if (bank == nullptr || weights.empty())
        return 0.0;
    return static_cast<double>(bank->nonzeros()) /
           static_cast<double>(weights.size());
}

namespace
{

/**
 * v3 moved the weights out of the trace: each layer records its
 * bank's key instead. Every older file fails the magic check, lands
 * on the cache's corrupt-entry path, and is quarantined + regenerated
 * — exactly the recovery a stale format should get.
 */
constexpr std::uint32_t kTraceMagic = 0xD1FF7003;

/**
 * Fewest body bytes one layer record can take: a name length, eight
 * spec/format fields, three imap dims and the has-bank flag.
 */
constexpr std::size_t kMinLayerBytes = 4 * (1 + 8 + 3 + 1);

void
serializeBody(const NetworkTrace &trace, BodySink &out)
{
    out.string(trace.network);
    out.i32(static_cast<int>(trace.netClass));
    out.i32(trace.frameHeight);
    out.i32(trace.frameWidth);
    out.pod(static_cast<std::uint32_t>(trace.layers.size()));
    for (const auto &layer : trace.layers) {
        out.string(layer.spec.name);
        out.i32(layer.spec.inChannels);
        out.i32(layer.spec.outChannels);
        out.i32(layer.spec.kernel);
        out.i32(layer.spec.stride);
        out.i32(layer.spec.dilation);
        out.i32(layer.spec.relu ? 1 : 0);
        out.i32(layer.spec.resolutionDivisor);
        out.i32(layer.imapFracBits);
        const auto &is3 = layer.imap.shape();
        out.i32(is3.c);
        out.i32(is3.h);
        out.i32(is3.w);
        out.block(layer.imap.data(), layer.imap.size());
        const WeightBank *bank = layer.weights.get();
        const WeightKey *key = bank != nullptr ? bank->key() : nullptr;
        if (key == nullptr && !layer.weights.empty())
            throw std::invalid_argument("saveTrace: layer " +
                                        layer.spec.name +
                                        " holds weights without a key");
        out.i32(key != nullptr ? 1 : 0);
        if (key != nullptr)
            putWeightKey(out, *key);
    }
}

/**
 * The bank key of @p spec's layer in @p trace. The key sizes a bank
 * that resolving it may synthesize, so it must name this very layer,
 * and its bank must fit in a bank file's envelope.
 */
WeightKey
takeLayerKey(BodyCursor &in, const NetworkTrace &trace,
             const ConvLayerSpec &spec)
{
    WeightKey key = takeWeightKey(in);
    if (key.network != trace.network || key.layer != spec.name ||
        key.inChannels != spec.inChannels ||
        key.outChannels != spec.outChannels || key.kernel != spec.kernel)
        throw std::runtime_error("trace layer " + spec.name +
                                 " records another layer's bank key");
    const Shape4 s = key.shape();
    std::uint64_t bytes = sizeof(std::int16_t);
    for (const int dim : {s.k, s.c, s.h, s.w}) {
        // bytes <= 2^30 before each step and dim < 2^31, so the
        // product stays below 2^61.
        if (dim < 0)
            throw std::runtime_error("trace bank key has a negative dim");
        bytes *= static_cast<std::uint64_t>(dim);
        if (bytes > kMaxEnvelopeBodyBytes)
            throw std::runtime_error("trace bank key declares an absurd bank");
    }
    return key;
}

NetworkTrace
parseBody(BodyCursor &in, const BankResolver &resolve)
{
    NetworkTrace trace;
    trace.network = in.string();
    trace.netClass = static_cast<NetClass>(in.i32());
    trace.frameHeight = in.i32();
    trace.frameWidth = in.i32();
    const auto layerCount = in.pod<std::uint32_t>();
    if (layerCount > in.left() / kMinLayerBytes)
        throw std::runtime_error(
            "trace declares more layers than its body holds");
    trace.layers.resize(layerCount);
    for (auto &layer : trace.layers) {
        layer.spec.name = in.string();
        layer.spec.inChannels = in.i32();
        layer.spec.outChannels = in.i32();
        layer.spec.kernel = in.i32();
        layer.spec.stride = in.i32();
        layer.spec.dilation = in.i32();
        layer.spec.relu = in.i32() != 0;
        layer.spec.resolutionDivisor = in.i32();
        layer.imapFracBits = in.i32();
        const auto [ic, ih, iw] = in.dims<3>();
        layer.imap = TensorI16(ic, ih, iw);
        in.take(layer.imap.data(), layer.imap.size() * sizeof(std::int16_t));
        if (in.i32() != 0) {
            const WeightKey key = takeLayerKey(in, trace, layer.spec);
            layer.weights =
                resolve ? resolve(key) : WeightStore::instance().get(key);
        }
    }
    return trace;
}

} // namespace

void
saveTrace(const NetworkTrace &trace, std::ostream &os)
{
    writeEnvelope(os, kTraceMagic,
                  [&](BodySink &out) { serializeBody(trace, out); });
}

NetworkTrace
loadTrace(std::istream &is, const BankResolver &resolve)
{
    return readEnvelope(is, kTraceMagic, "trace", [&](BodyCursor &in) {
        return parseBody(in, resolve);
    });
}

} // namespace diffy
