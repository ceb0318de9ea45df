#include "nn/weight_store.hh"

#include <charconv>
#include <stdexcept>

#include "nn/envelope.hh"
#include "nn/executor.hh"
#include "obs/metrics.hh"

namespace diffy
{

namespace
{

/** Envelope magic of a bank file (trace files use 0xD1FF7xxx). */
constexpr std::uint32_t kBankMagic = 0xD1FFB001;

/** Lower-case hex digits of @p v appended to @p out. */
void
appendHex(std::string &out, std::uint64_t v)
{
    char buf[16];
    const auto end = std::to_chars(buf, buf + sizeof buf, v, 16).ptr;
    out.append(buf, end);
}

/** The heap-owned empty bank an empty WeightsRef reads as. */
const FilterBankI16 kNoWeights;

} // namespace

std::string
WeightKey::str() const
{
    std::string s = network + '.' + layer + '.' +
                    std::to_string(inChannels) + 'x' +
                    std::to_string(outChannels) + 'k' +
                    std::to_string(kernel) + ".w";
    appendHex(s, weightSeed);
    s += ".m";
    appendHex(s, sparsitySeed);
    s += ".p";
    appendHex(s, sparsityBits);
    return s;
}

void
putWeightKey(BodySink &out, const WeightKey &key)
{
    out.string(key.network);
    out.string(key.layer);
    out.i32(key.inChannels);
    out.i32(key.outChannels);
    out.i32(key.kernel);
    out.pod(key.weightSeed);
    out.pod(key.sparsitySeed);
    out.pod(key.sparsityBits);
}

WeightKey
takeWeightKey(BodyCursor &in)
{
    WeightKey key;
    key.network = in.string();
    key.layer = in.string();
    key.inChannels = in.i32();
    key.outChannels = in.i32();
    key.kernel = in.i32();
    key.weightSeed = in.pod<std::uint64_t>();
    key.sparsitySeed = in.pod<std::uint64_t>();
    key.sparsityBits = in.pod<std::uint64_t>();
    return key;
}

WeightBank::WeightBank(FilterBankI16 weights, int fracBits,
                       std::optional<WeightKey> key)
    : weights_(std::move(weights)), fracBits_(fracBits),
      key_(std::move(key)),
      channelNonzeros_(static_cast<std::size_t>(weights_.channels()), 0),
      filterNonzeros_(static_cast<std::size_t>(weights_.filters()), 0)
{
    const std::size_t taps =
        static_cast<std::size_t>(weights_.height()) * weights_.width();
    const std::int16_t *w = weights_.data();
    for (std::size_t f = 0; f < filterNonzeros_.size(); ++f) {
        for (std::size_t c = 0; c < channelNonzeros_.size(); ++c) {
            std::int64_t n = 0;
            for (std::size_t t = 0; t < taps; ++t)
                n += *w++ != 0;
            channelNonzeros_[c] += n;
            filterNonzeros_[f] += n;
            nonzeros_ += n;
        }
    }
}

WeightsRef::WeightsRef(FilterBankI16 weights)
    : bank_(std::make_shared<const WeightBank>(std::move(weights), 0))
{}

const FilterBankI16 &
WeightsRef::bank() const
{
    return bank_ ? bank_->weights() : kNoWeights;
}

std::shared_ptr<const WeightBank>
synthesizeBank(const WeightKey &key)
{
    int frac = 0;
    FilterBankI16 weights = synthesizeWeights(key, &frac);
    static obs::Counter &built =
        obs::MetricsRegistry::instance().counter("nn.weight_banks_built");
    built.add(1);
    return std::make_shared<const WeightBank>(std::move(weights), frac, key);
}

void
saveBank(const WeightBank &bank, std::ostream &os)
{
    if (bank.key() == nullptr)
        throw std::invalid_argument("saveBank: a hand-built bank has no key");
    writeEnvelope(os, kBankMagic, [&](BodySink &out) {
        putWeightKey(out, *bank.key());
        out.i32(bank.fracBits());
        const Shape4 &s = bank.weights().shape();
        out.i32(s.k);
        out.i32(s.c);
        out.i32(s.h);
        out.i32(s.w);
        out.block(bank.weights().data(), bank.weights().size());
    });
}

std::shared_ptr<const WeightBank>
loadBank(std::istream &is, const WeightKey &key)
{
    return readEnvelope(is, kBankMagic, "weight bank", [&](BodyCursor &in) {
        if (takeWeightKey(in) != key)
            throw std::runtime_error("weight bank file holds another key");
        const int frac = in.i32();
        const auto [k, c, h, w] = in.dims<4>();
        if (Shape4{k, c, h, w} != key.shape())
            throw std::runtime_error("weight bank has the wrong shape");
        FilterBankI16 weights(k, c, h, w);
        in.take(weights.data(), weights.size() * sizeof(std::int16_t));
        return std::make_shared<const WeightBank>(std::move(weights), frac,
                                                  key);
    });
}

WeightStore &
WeightStore::instance()
{
    static WeightStore store;
    return store;
}

} // namespace diffy
