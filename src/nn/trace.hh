/**
 * @file
 * Layer traces: the quantized value streams the accelerator models
 * consume.
 *
 * A LayerTrace captures, for one convolutional layer of one inference,
 * everything the cycle-level simulators and the analysis/compression
 * modules need: the quantized input feature map (imap), a handle on
 * the layer's shared weight bank (nn/weight_store.hh), and the layer
 * descriptor. Traces are serializable so bench binaries can share a
 * cache of forward passes; a trace file records each bank's key, not
 * its weights.
 */

#ifndef DIFFY_NN_TRACE_HH
#define DIFFY_NN_TRACE_HH

#include <array>
#include <atomic>
#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/layer.hh"
#include "nn/weight_store.hh"
#include "tensor/tensor.hh"

namespace diffy
{

/** What a layer fact describes; each kind has its own fill counter. */
enum class FactKind : std::uint8_t
{
    /** Self-profiled imap precision (encode.precisions_profiled). */
    ProfiledBits,
    /** Measured bits/value under a scheme (encode.bits_measured). */
    BitsPerValue,
    /** PRA/Diffy pallet-walk cycles and useful terms (sim.walks). */
    Walk,
};

/** Identifies one fact of a layer: its kind and up to three parameters. */
struct FactKey
{
    FactKind kind = FactKind::ProfiledBits;
    int a = 0, b = 0, c = 0;

    auto operator<=>(const FactKey &) const = default;
};

/**
 * Per-layer facts, computed lazily at most once per (layer, key) and
 * shared by every thread reading the layer. Facts are keyed by the
 * layer's identity, not its content: they describe the layer as it was
 * when first asked, so a trace must not be changed once it has been
 * queried. A copy starts with no facts (it may be changed on its
 * own); a move carries them. Facts hold scalars only. Nothing is
 * allocated until the first query.
 */
class LayerFacts
{
  public:
    using Value = std::array<double, 2>;

    LayerFacts() = default;
    LayerFacts(const LayerFacts &) noexcept {}
    LayerFacts(LayerFacts &&o) noexcept : state_(o.state_.exchange(nullptr))
    {
    }
    /** Copy-assignment empties the target; move-assignment takes over. */
    LayerFacts &operator=(LayerFacts o) noexcept;
    ~LayerFacts();

    /**
     * The fact under @p key. The first caller runs @p compute (a
     * callable returning Value) while callers of the same key wait;
     * later callers read the stored value. If @p compute throws,
     * nothing is stored.
     */
    template <typename Fn>
    Value
    get(const FactKey &key, Fn &&compute) const
    {
        using F = std::remove_reference_t<Fn>;
        return lookup(
            key,
            [](const void *fn) -> Value {
                return (*static_cast<const F *>(fn))();
            },
            std::addressof(compute));
    }

  private:
    struct State;

    Value lookup(const FactKey &key, Value (*compute)(const void *),
                 const void *fn) const;

    mutable std::atomic<State *> state_{nullptr};
};

/** Captured state of one layer execution. */
struct LayerTrace
{
    ConvLayerSpec spec;
    /** Quantized input activations (C, H, W), pre-padding. */
    TensorI16 imap;
    /** Fractional bits of the imap fixed-point format. */
    int imapFracBits = 0;
    /** Quantized filter bank (K, C, Kh, Kw), shared and immutable. */
    WeightsRef weights;

    /** Fractional bits of the weight fixed-point format. */
    int weightFracBits() const { return weights.fracBits(); }

    /** Spatial output height for this trace's imap. */
    int outHeight() const { return spec.outDim(imap.height()); }
    /** Spatial output width for this trace's imap. */
    int outWidth() const { return spec.outDim(imap.width()); }
    /** Total output activations for this trace's imap. */
    std::size_t outCount() const
    {
        return static_cast<std::size_t>(spec.outChannels) * outHeight() *
               outWidth();
    }
    /** Fraction of nonzero quantized weights. */
    double weightDensity() const;

    /** Lazily computed facts about this layer (see LayerFacts). */
    LayerFacts facts;
};

/** Captured state of one full-network inference. */
struct NetworkTrace
{
    std::string network;
    NetClass netClass = NetClass::CiDnn;
    /** Spatial size of the frame this trace was captured on. */
    int frameHeight = 0;
    int frameWidth = 0;
    std::vector<LayerTrace> layers;
};

/**
 * Serialize a trace to a binary stream (format versioned). Each layer
 * records its bank's key; a layer may hold no bank, or an empty one.
 * @throws std::invalid_argument if a layer holds a nonempty bank
 *         without a key, which no file could refer to.
 */
void saveTrace(const NetworkTrace &trace, std::ostream &os);

/** Finds the bank of a key a trace file records. */
using BankResolver =
    std::function<std::shared_ptr<const WeightBank>(const WeightKey &)>;

/**
 * Deserialize a trace written by saveTrace(), taking each layer's
 * bank from @p resolve (by default WeightStore::instance()).
 * @throws std::runtime_error on format mismatch or truncation.
 */
NetworkTrace loadTrace(std::istream &is, const BankResolver &resolve = {});

} // namespace diffy

#endif // DIFFY_NN_TRACE_HH
