#include "nn/trace.hh"

#include <array>
#include <cstring>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/bitops.hh"
#include "obs/metrics.hh"

namespace diffy
{

/**
 * One fact. `fill` serializes its single computation; `ready`, set
 * after `value` is written, lets later readers skip the mutex.
 */
struct LayerFacts::Slot
{
    std::atomic<bool> ready{false};
    std::mutex fill;
    Value value{};
};

/** The facts of one layer; created by the first query. */
struct LayerFacts::State
{
    std::mutex mu; ///< guards the map, not the slots' values
    std::map<FactKey, Slot> slots;
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
    Slot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(state->mu);
        slot = &state->slots[key];
    }
    if (!slot->ready) {
        std::lock_guard<std::mutex> lock(slot->fill);
        if (!slot->ready) {
            slot->value = compute(fn);
            slot->ready = true;
            auto &reg = obs::MetricsRegistry::instance();
            static obs::Counter *const fills[] = { // in FactKind order
                &reg.counter("encode.precisions_profiled"),
                &reg.counter("encode.bits_measured"),
                &reg.counter("sim.walks")};
            fills[static_cast<std::size_t>(key.kind)]->add(1);
        }
    }
    return slot->value;
}

double
LayerTrace::weightDensity()
 const
{
    if (weights.empty())
        return 0.0;
    std::size_t nonzero = 0;
    const std::int16_t *data = weights.data();
    for (std::size_t i = 0; i < weights.size(); ++i)
        nonzero += data[i] != 0;
    return static_cast<double>(nonzero) /
           static_cast<double>(weights.size());
}

namespace
{

/**
 * v2 bumped the magic when the CRC-framed envelope was introduced:
 * legacy footer-less files now fail the magic check, land on the
 * cache's corrupt-entry path, and are quarantined + regenerated —
 * exactly the recovery a stale format should get.
 */
constexpr std::uint32_t kTraceMagic = 0xD1FF7002;

/**
 * Ceiling on the declared body size of a trace file. The traces this
 * repo generates are tens of megabytes at most; the cap turns a
 * corrupted length field into a clean error instead of a
 * multi-gigabyte allocation.
 */
constexpr std::uint64_t kMaxTraceBytes = std::uint64_t{1} << 30;

/**
 * Fewest body bytes one layer record can take: a name length, nine
 * spec/format fields, three imap dims and four weight dims.
 */
constexpr std::size_t kMinLayerBytes = 4 * (1 + 9 + 3 + 4);

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        throw std::runtime_error("trace stream truncated");
    return v;
}

/**
 * Where saveTrace's serializer puts the body. Without a stream it only
 * counts bytes (the first pass, which sizes the envelope); with one it
 * writes every piece and chains its CRC-32C (the second pass).
 */
struct BodySink
{
    std::ostream *os = nullptr;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;

    void
    put(const void *p, std::size_t n)
    {
        bytes += n;
        if (os != nullptr) {
            os->write(static_cast<const char *>(p),
                      static_cast<std::streamsize>(n));
            crc = crc32c(p, n, crc);
        }
    }

    void
    i32(int v)
    {
        const auto w = static_cast<std::int32_t>(v);
        put(&w, sizeof w);
    }

    void
    string(const std::string &s)
    {
        const auto n = static_cast<std::uint32_t>(s.size());
        put(&n, sizeof n);
        put(s.data(), s.size());
    }

    void
    block(const std::int16_t *data, std::size_t n)
    {
        put(data, n * sizeof(std::int16_t));
    }
};

void
serializeBody(const NetworkTrace &trace, BodySink &out)
{
    out.string(trace.network);
    out.i32(static_cast<int>(trace.netClass));
    out.i32(trace.frameHeight);
    out.i32(trace.frameWidth);
    const auto layerCount = static_cast<std::uint32_t>(trace.layers.size());
    out.put(&layerCount, sizeof layerCount);
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
        out.i32(layer.weightFracBits);
        const auto &is3 = layer.imap.shape();
        out.i32(is3.c);
        out.i32(is3.h);
        out.i32(is3.w);
        out.block(layer.imap.data(), layer.imap.size());
        const auto &ws = layer.weights.shape();
        out.i32(ws.k);
        out.i32(ws.c);
        out.i32(ws.h);
        out.i32(ws.w);
        out.block(layer.weights.data(), layer.weights.size());
    }
}

/**
 * Bounds-checked reader over a CRC-verified body. Every read that
 * would pass the end throws, and tensor dims are checked against the
 * bytes left before anything is allocated for them, so a body whose
 * CRC matches but whose fields are absurd (written by a buggy or
 * hostile producer) fails cleanly too.
 */
class BodyCursor
{
  public:
    BodyCursor(const char *p, std::size_t n) : p_(p), left_(n) {}

    std::size_t left() const { return left_; }

    void
    take(void *dst, std::size_t n)
    {
        need(n);
        if (n == 0)
            return; // an empty tensor's data() may be null
        std::memcpy(dst, p_, n);
        p_ += n;
        left_ -= n;
    }

    template <typename T>
    T
    pod()
    {
        T v;
        take(&v, sizeof v);
        return v;
    }

    int i32() { return pod<std::int32_t>(); }

    std::string
    string()
    {
        const auto n = pod<std::uint32_t>();
        need(n);
        std::string s(n, '\0');
        take(s.data(), n);
        return s;
    }

    /**
     * Read N tensor dims; throws unless each is non-negative and the
     * int16 block they describe fits in the bytes left.
     */
    template <std::size_t N>
    std::array<int, N>
    dims()
    {
        std::array<int, N> d;
        std::uint64_t bytes = sizeof(std::int16_t);
        for (int &v : d) {
            v = i32();
            if (v < 0)
                throw std::runtime_error("trace declares a negative dim");
            // bytes <= left_ <= 2^30 before each step and v < 2^31,
            // so the product stays below 2^61.
            bytes *= static_cast<std::uint64_t>(v);
            if (bytes > left_)
                throw std::runtime_error(
                    "trace declares a block larger than its body");
        }
        return d;
    }

  private:
    void
    need(std::size_t n) const
    {
        if (n > left_)
            throw std::runtime_error("trace body truncated");
    }

    const char *p_;
    std::size_t left_;
};

NetworkTrace
parseBody(BodyCursor &in)
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
        layer.weightFracBits = in.i32();
        const auto [ic, ih, iw] = in.dims<3>();
        layer.imap = TensorI16(ic, ih, iw);
        in.take(layer.imap.data(), layer.imap.size() * sizeof(std::int16_t));
        const auto [wk, wc, wh, ww] = in.dims<4>();
        layer.weights = FilterBankI16(wk, wc, wh, ww);
        in.take(layer.weights.data(),
                layer.weights.size() * sizeof(std::int16_t));
    }
    return trace;
}

} // namespace

void
saveTrace(const NetworkTrace &trace, std::ostream &os)
{
    // CRC-framed envelope: magic, u64 body length, body, u32
    // crc32c(body). One serializer runs twice: a counting pass sizes
    // the body, then the writing pass streams it to os and checksums
    // exactly the bytes it writes.
    BodySink sink;
    serializeBody(trace, sink);
    writePod(os, kTraceMagic);
    writePod(os, sink.bytes);
    sink = BodySink{&os};
    serializeBody(trace, sink);
    writePod(os, sink.crc);
}

NetworkTrace
loadTrace(std::istream &is)
{
    if (readPod<std::uint32_t>(is) != kTraceMagic)
        throw std::runtime_error("bad trace magic");
    auto byteCount = readPod<std::uint64_t>(is);
    if (byteCount > kMaxTraceBytes)
        throw std::runtime_error("trace declares an absurd body size");
    // Read and verify the whole body *before* parsing: a flipped
    // tensor byte would otherwise silently smear into downstream sims.
    // One uninitialised buffer holds it; the cursor then copies each
    // block straight into its tensor.
    const auto n = static_cast<std::size_t>(byteCount);
    const auto bytes = std::make_unique_for_overwrite<char[]>(n);
    is.read(bytes.get(), static_cast<std::streamsize>(n));
    if (!is)
        throw std::runtime_error("trace stream truncated");
    auto expected = readPod<std::uint32_t>(is);
    if (crc32c(bytes.get(), n) != expected)
        throw std::runtime_error(
            "trace checksum mismatch (detected corruption)");
    BodyCursor body(bytes.get(), n);
    NetworkTrace trace = parseBody(body);
    if (body.left() != 0)
        throw std::runtime_error("trace body has trailing bytes");
    return trace;
}

} // namespace diffy
