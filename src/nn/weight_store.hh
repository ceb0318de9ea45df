/**
 * @file
 * Process-wide store of the synthesized, quantized weight banks.
 *
 * A layer's weights are a pure function of its WeightKey (network,
 * layer shape, weight seed, sparsity options), so every trace of that
 * layer shares one immutable WeightBank instead of owning a copy: the
 * forward pass, every LayerTrace and every trace file refer to the
 * bank by key. The bank also carries the per-input-channel and
 * per-filter nonzero counts (the weight-sparsity signal of
 * Cnvlutin2/SCNN), computed once when it is built.
 *
 * WeightStore::instance() fills each key at most once and holds its
 * bank for the life of the process (DESIGN.md §8). Banks are always
 * heap-owned, never on an ambient ArenaScope: a serve job's arena is
 * rewound while the store still refers to them.
 */

#ifndef DIFFY_NN_WEIGHT_STORE_HH
#define DIFFY_NN_WEIGHT_STORE_HH

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/once_map.hh"
#include "tensor/tensor.hh"

namespace diffy
{

class BodyCursor;
struct BodySink;

/** Every input of weight synthesis: equal keys give equal banks. */
struct WeightKey
{
    std::string network;
    std::string layer;
    int inChannels = 0;
    int outChannels = 0;
    int kernel = 0;
    std::uint64_t weightSeed = 0;
    std::uint64_t sparsitySeed = 0;
    /** Bit pattern of the weight-sparsity fraction (a double). */
    std::uint64_t sparsityBits = 0;

    auto operator<=>(const WeightKey &) const = default;

    /** The bank's shape: (out, in, kernel, kernel). */
    Shape4 shape() const { return {outChannels, inChannels, kernel, kernel}; }

    /** File-name form: `<network>.<layer>.<in>x<out>k<kernel>.w…m…p…`. */
    std::string str() const;
};

/** Append @p key to an envelope body (trace and bank files). */
void putWeightKey(BodySink &out, const WeightKey &key);
/** Read a key written by putWeightKey(). */
WeightKey takeWeightKey(BodyCursor &in);

/** One layer's quantized weights, their format and nonzero counts. */
class WeightBank
{
  public:
    /** Counts @p weights' nonzeros; a hand-built bank has no @p key,
     *  so no file can refer to it. */
    WeightBank(FilterBankI16 weights, int fracBits,
               std::optional<WeightKey> key = std::nullopt);

    const FilterBankI16 &weights() const { return weights_; }
    /** Fractional bits of the fixed-point format. */
    int fracBits() const { return fracBits_; }
    /** The synthesis key, or null for a hand-built bank. */
    const WeightKey *key() const { return key_ ? &*key_ : nullptr; }

    /** Nonzero weights of input channel c, summed over filters. */
    const std::vector<std::int64_t> &
    channelNonzeros() const
    {
        return channelNonzeros_;
    }
    /** Nonzero weights of filter f. */
    const std::vector<std::int64_t> &
    filterNonzeros() const
    {
        return filterNonzeros_;
    }
    /** Nonzero weights in the whole bank. */
    std::int64_t nonzeros() const { return nonzeros_; }

  private:
    FilterBankI16 weights_;
    int fracBits_;
    std::optional<WeightKey> key_;
    std::vector<std::int64_t> channelNonzeros_;
    std::vector<std::int64_t> filterNonzeros_;
    std::int64_t nonzeros_ = 0;
};

/**
 * A layer's read-only handle on its bank: shared, never copied. It
 * answers FilterBankI16's read API and converts to it; an empty
 * handle reads as an empty bank.
 */
class WeightsRef
{
  public:
    WeightsRef() = default;
    WeightsRef(std::shared_ptr<const WeightBank> bank) noexcept
        : bank_(std::move(bank))
    {}
    /** A hand-built, unkeyed bank owning @p weights, with 0 fractional
     *  bits. */
    WeightsRef(FilterBankI16 weights);

    const FilterBankI16 &bank() const;
    operator const FilterBankI16 &() const { return bank(); }

    const Shape4 &shape() const { return bank().shape(); }
    int filters() const { return bank().filters(); }
    std::size_t size() const { return bank().size(); }
    bool empty() const { return bank().empty(); }
    const std::int16_t *data() const { return bank().data(); }
    std::int16_t
    at(int k, int c, int y, int x) const
    {
        return bank().at(k, c, y, x);
    }

    /** Fractional bits of the bank's format (0 when empty). */
    int fracBits() const { return bank_ ? bank_->fracBits() : 0; }
    /** The shared bank, or null. */
    const WeightBank *get() const { return bank_.get(); }

  private:
    std::shared_ptr<const WeightBank> bank_;
};

/** Build @p key's bank by synthesis; counts nn.weight_banks_built. */
std::shared_ptr<const WeightBank> synthesizeBank(const WeightKey &key);

/**
 * Write @p bank in a bank file's envelope. Only a keyed bank can be
 * written.
 */
void saveBank(const WeightBank &bank, std::ostream &os);

/**
 * Read the bank of @p key from a file written by saveBank().
 * @throws std::runtime_error on any envelope failure, or if the file
 *         holds another key or a bank of the wrong shape.
 */
std::shared_ptr<const WeightBank> loadBank(std::istream &is,
                                           const WeightKey &key);

/**
 * Banks by key, each filled at most once and then held for the life
 * of the store. Thread-safe: concurrent get()s of one key run one
 * fill while the others wait; a fill that throws stores nothing.
 */
class WeightStore
{
  public:
    /** The process-wide store. */
    static WeightStore &instance();

    /** The bank of @p key, synthesized on first use. */
    std::shared_ptr<const WeightBank>
    get(const WeightKey &key)
    {
        return banks_.get(key, [&] { return synthesizeBank(key); });
    }

    /**
     * The bank of @p key; on first use @p fill (a callable returning
     * std::shared_ptr<const WeightBank>) builds it.
     */
    template <typename Fn>
    std::shared_ptr<const WeightBank>
    get(const WeightKey &key, Fn &&fill)
    {
        return banks_.get(key, fill);
    }

  private:
    OnceMap<WeightKey, std::shared_ptr<const WeightBank>> banks_;
};

} // namespace diffy

#endif // DIFFY_NN_WEIGHT_STORE_HH
