#include "nn/executor.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/fixed_point.hh"
#include "common/pool.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace diffy
{

Tensor3<float>
convolve(const Tensor3<float> &input, const Tensor4<float> &weights,
         int stride, int dilation, const simd::KernelTable &kernels)
{
    const int in_c = input.channels();
    const int in_h = input.height();
    const int in_w = input.width();
    if (weights.channels() != in_c)
        throw std::invalid_argument("convolve: channel mismatch");
    const simd::ConvGeometry g =
        simd::sameConvGeometry(in_c, weights.filters(), in_h, in_w,
                               weights.height(), stride, dilation);

    Tensor3<float> out(g.filters, g.outH, g.outW, scratchAlloc<float>());
    // One zero-padded copy of the input, large enough for every tap
    // of every output window, so the kernel runs without bounds
    // checks. Padding taps add w * 0 == +-0, which leaves every
    // finite sum bit-identical to skipping them
    // (KernelTable::convolveF32). The copy is dead once the kernel
    // returns, so its arena space goes back to the frame.
    ScratchRewind transient;
    Tensor3<float> padded(in_c, g.paddedH, g.paddedW,
                          scratchAlloc<float>());
    for (int c = 0; c < in_c; ++c) {
        for (int y = 0; y < in_h; ++y) {
            const std::size_t src =
                (static_cast<std::size_t>(c) * in_h + y) * in_w;
            const std::size_t dst =
                (static_cast<std::size_t>(c) * g.paddedH + y + g.pad) *
                    g.paddedW +
                g.pad;
            std::copy_n(input.data() + src, in_w, padded.data() + dst);
        }
    }
    kernels.convolveF32(padded.data(), weights.data(), out.data(), g);
    return out;
}

Tensor3<float>
convolve(const Tensor3<float> &input, const Tensor4<float> &weights,
         int stride, int dilation)
{
    return convolve(input, weights, stride, dilation, simd::kernels());
}

Tensor3<float>
maxPool(const Tensor3<float> &input, int factor)
{
    const int c = input.channels();
    const int out_h = input.height() / factor;
    const int out_w = input.width() / factor;
    Tensor3<float> out(c, out_h, out_w, scratchAlloc<float>());
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < out_h; ++y) {
            for (int x = 0; x < out_w; ++x) {
                float best = input.at(ch, y * factor, x * factor);
                for (int dy = 0; dy < factor; ++dy) {
                    for (int dx = 0; dx < factor; ++dx) {
                        float v =
                            input.at(ch, y * factor + dy, x * factor + dx);
                        if (v > best)
                            best = v;
                    }
                }
                out.at(ch, y, x) = best;
            }
        }
    }
    return out;
}

Tensor3<float>
pixelShuffle(const Tensor3<float> &input, int factor)
{
    const int r2 = factor * factor;
    if (input.channels() % r2 != 0)
        throw std::invalid_argument("pixelShuffle: channels % r^2 != 0");
    const int out_c = input.channels() / r2;
    const int out_h = input.height() * factor;
    const int out_w = input.width() * factor;
    Tensor3<float> out(out_c, out_h, out_w, scratchAlloc<float>());
    for (int c = 0; c < out_c; ++c) {
        for (int y = 0; y < out_h; ++y) {
            for (int x = 0; x < out_w; ++x) {
                int sub = (y % factor) * factor + (x % factor);
                out.at(c, y, x) =
                    input.at(c * r2 + sub, y / factor, x / factor);
            }
        }
    }
    return out;
}

namespace
{

/** Luminance plane of an RGB image. */
Tensor3<float>
luminance(const Tensor3<float> &rgb)
{
    Tensor3<float> out(1, rgb.height(), rgb.width(),
                       scratchAlloc<float>());
    for (int y = 0; y < rgb.height(); ++y) {
        for (int x = 0; x < rgb.width(); ++x) {
            out.at(0, y, x) = 0.299f * rgb.at(0, y, x) +
                              0.587f * rgb.at(1, y, x) +
                              0.114f * rgb.at(2, y, x);
        }
    }
    return out;
}

/** RGGB Bayer mosaic packed 2x2 into 4 half-resolution channels. */
Tensor3<float>
bayerPack(const Tensor3<float> &rgb)
{
    const int h2 = rgb.height() / 2;
    const int w2 = rgb.width() / 2;
    Tensor3<float> out(4, h2, w2, scratchAlloc<float>());
    for (int y = 0; y < h2; ++y) {
        for (int x = 0; x < w2; ++x) {
            out.at(0, y, x) = rgb.at(0, 2 * y, 2 * x);         // R
            out.at(1, y, x) = rgb.at(1, 2 * y, 2 * x + 1);     // G
            out.at(2, y, x) = rgb.at(1, 2 * y + 1, 2 * x);     // G
            out.at(3, y, x) = rgb.at(2, 2 * y + 1, 2 * x + 1); // B
        }
    }
    return out;
}

/** 2x2 pixel-unshuffle of all channels plus noise-sigma planes. */
Tensor3<float>
ffdnetPack(const Tensor3<float> &rgb)
{
    const int h2 = rgb.height() / 2;
    const int w2 = rgb.width() / 2;
    Tensor3<float> out(15, h2, w2, scratchAlloc<float>());
    for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < h2; ++y) {
            for (int x = 0; x < w2; ++x) {
                out.at(c * 4 + 0, y, x) = rgb.at(c, 2 * y, 2 * x);
                out.at(c * 4 + 1, y, x) = rgb.at(c, 2 * y, 2 * x + 1);
                out.at(c * 4 + 2, y, x) = rgb.at(c, 2 * y + 1, 2 * x);
                out.at(c * 4 + 3, y, x) = rgb.at(c, 2 * y + 1, 2 * x + 1);
            }
        }
    }
    // Per-color noise standard deviation planes (constant).
    const float sigmas[3] = {0.0941f, 0.0941f, 0.0941f};
    for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < h2; ++y) {
            for (int x = 0; x < w2; ++x)
                out.at(12 + c, y, x) = sigmas[c];
        }
    }
    return out;
}

/**
 * Resample / channel-adapt @p t to the expected next-layer input.
 * Downsampling uses max pooling (classification backbones);
 * upsampling uses pixel shuffle (JointNet's full-resolution head).
 */
Tensor3<float>
adaptToLayer(Tensor3<float> t, int cur_divisor, const ConvLayerSpec &next)
{
    if (next.resolutionDivisor > cur_divisor) {
        int factor = next.resolutionDivisor / cur_divisor;
        t = maxPool(t, factor);
    } else if (next.resolutionDivisor < cur_divisor) {
        int factor = cur_divisor / next.resolutionDivisor;
        int r2 = factor * factor;
        // Shuffle as many channel groups as divide evenly; any
        // remainder is handled by the channel adapter below.
        int usable = (t.channels() / r2) * r2;
        if (usable > 0) {
            Tensor3<float> head(usable, t.height(), t.width(),
                                scratchAlloc<float>());
            for (int c = 0; c < usable; ++c) {
                for (int y = 0; y < t.height(); ++y) {
                    for (int x = 0; x < t.width(); ++x)
                        head.at(c, y, x) = t.at(c, y, x);
                }
            }
            t = pixelShuffle(head, factor);
        }
    }
    if (t.channels() != next.inChannels) {
        // Structural adapter for concatenation-style inputs (e.g.
        // JointNet appends mosaic channels after the pixel shuffle):
        // replicate existing channels with decaying gain, or truncate.
        Tensor3<float> adapted(next.inChannels, t.height(), t.width(),
                               scratchAlloc<float>());
        for (int c = 0; c < next.inChannels; ++c) {
            int src = c % t.channels();
            float gain = c < t.channels() ? 1.0f : 0.7f;
            for (int y = 0; y < t.height(); ++y) {
                for (int x = 0; x < t.width(); ++x)
                    adapted.at(c, y, x) = gain * t.at(src, y, x);
            }
        }
        t = std::move(adapted);
    }
    return t;
}

/**
 * Quantize a float tensor to int16. The scale is the coarsest
 * power-of-two step whose relative RMS quantization error stays below
 * @p rel_error (capped by the range-driven maximum from
 * chooseFracBits), so activations carry only the significant bits a
 * quality-profiled fixed-point deployment would keep.
 */
TensorI16
quantizeTensor(const Tensor3<float> &t, double rel_error,
               int *frac_bits_out)
{
    float max_abs = 0.0f;
    double sum_sq = 0.0;
    const float *data = t.data();
    for (std::size_t i = 0; i < t.size(); ++i) {
        float a = std::fabs(data[i]);
        if (a > max_abs)
            max_abs = a;
        sum_sq += static_cast<double>(data[i]) * data[i];
    }
    int frac = chooseFracBits(max_abs);
    const double rms =
        t.size() ? std::sqrt(sum_sq / static_cast<double>(t.size())) : 0.0;
    if (rms > 0.0 && rel_error > 0.0) {
        // Uniform quantization with step q has RMS error q/sqrt(12);
        // the coarsest acceptable step solves q = rel*rms*sqrt(12).
        const double q = rel_error * rms * std::sqrt(12.0);
        const int frac_quality =
            static_cast<int>(std::ceil(-std::log2(q)));
        if (frac_quality < frac)
            frac = frac_quality < 0 ? 0 : frac_quality;
    }
    TensorI16 out(t.shape(), scratchAlloc<std::int16_t>());
    std::int16_t *od = out.data();
    const double scale = static_cast<double>(std::int64_t{1} << frac);
    for (std::size_t i = 0; i < t.size(); ++i) {
        od[i] = saturate16(
            static_cast<std::int64_t>(std::llround(data[i] * scale)));
    }
    if (frac_bits_out)
        *frac_bits_out = frac;
    return out;
}

/**
 * The float weights the forward pass consumes, on the scratch
 * resource. q * 2^-frac is exact in float (q has at most 16
 * significant bits); rebuilding it per pass costs one multiply per
 * weight, 1/(H*W) of the convolution, and keeps the weight store at
 * 2 bytes per weight instead of 6.
 */
Tensor4<float>
dequantizeWeights(const WeightBank &bank)
{
    const FilterBankI16 &q = bank.weights();
    Tensor4<float> out(q.shape(), scratchAlloc<float>());
    const float scale = std::ldexp(1.0f, -bank.fracBits());
    for (std::size_t i = 0; i < q.size(); ++i)
        out.data()[i] = static_cast<float>(q.data()[i]) * scale;
    return out;
}

} // namespace

Tensor3<float>
buildNetworkInput(const NetworkSpec &net, const Tensor3<float> &rgb)
{
    if (rgb.channels() != 3)
        throw std::invalid_argument("buildNetworkInput expects RGB");
    if (net.name == "VDSR")
        return luminance(rgb);
    if (net.name == "FFDNet")
        return ffdnetPack(rgb);
    if (net.name == "JointNet")
        return bayerPack(rgb);
    // Identity nets still copy: the running activation is a per-frame
    // transient, so the copy lands on the ambient scratch resource.
    return Tensor3<float>(rgb, scratchAlloc<float>());
}

WeightKey
weightKey(const NetworkSpec &net, const ConvLayerSpec &layer,
          const ExecutorOptions &opts)
{
    return WeightKey{net.name,
                     layer.name,
                     layer.inChannels,
                     layer.outChannels,
                     layer.kernel,
                     opts.weightSeed,
                     opts.sparsitySeed,
                     std::bit_cast<std::uint64_t>(opts.weightSparsity)};
}

FilterBankI16
synthesizeWeights(const WeightKey &key, int *frac_bits_out)
{
    const std::uint64_t nameSeed =
        Rng::seedFromString(key.network + "/" + key.layer);
    Rng rng(key.weightSeed ^ nameSeed);
    const double fan_in =
        static_cast<double>(key.inChannels) * key.kernel * key.kernel;
    const double stddev = std::sqrt(2.0 / fan_in);

    Tensor4<float> wf(key.shape());
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < wf.size(); ++i) {
        float v = static_cast<float>(rng.gaussian(0.0, stddev));
        wf.data()[i] = v;
        float a = std::fabs(v);
        if (a > max_abs)
            max_abs = a;
    }
    const double sparsity = std::bit_cast<double>(key.sparsityBits);
    if (sparsity > 0.0) {
        Rng mask_rng(key.sparsitySeed ^ nameSeed);
        for (std::size_t i = 0; i < wf.size(); ++i) {
            if (mask_rng.uniform() < sparsity)
                wf.data()[i] = 0.0f;
        }
    }

    int frac = chooseFracBits(max_abs);
    FilterBankI16 out(wf.shape());
    const double scale = static_cast<double>(std::int64_t{1} << frac);
    for (std::size_t i = 0; i < wf.size(); ++i) {
        out.data()[i] = saturate16(static_cast<std::int64_t>(
            std::llround(wf.data()[i] * scale)));
    }
    if (frac_bits_out)
        *frac_bits_out = frac;
    return out;
}

NetworkTrace
runNetwork(const NetworkSpec &net, const Tensor3<float> &rgb,
           const ExecutorOptions &opts)
{
    NetworkTrace trace;
    trace.network = net.name;
    trace.netClass = net.netClass;
    trace.frameHeight = rgb.height();
    trace.frameWidth = rgb.width();
    trace.layers.reserve(net.layers.size());

    Tensor3<float> activ = buildNetworkInput(net, rgb);
    int cur_divisor = net.layers.empty()
                          ? 1
                          : net.layers.front().resolutionDivisor;

    for (std::size_t li = 0; li < net.layers.size(); ++li) {
        const ConvLayerSpec &layer = net.layers[li];
        // Per-layer observability: a trace span (skipped without the
        // string build when tracing is off) and a latency histogram
        // keyed by net/layer for --metrics-out cost attribution.
        obs::Span span(obs::traceEnabled()
                           ? "layer:" + net.name + "/" + layer.name
                           : std::string());
        obs::ScopedLatency timer(obs::MetricsRegistry::instance().histogram(
            "nn.layer_seconds:" + net.name + "/" + layer.name));
        // Bring the running activation to this layer's resolution and
        // channel count (pooling / pixel shuffle between stages).
        activ = adaptToLayer(std::move(activ), cur_divisor, layer);
        cur_divisor = layer.resolutionDivisor;

        // Every frame of every scene shares the store's bank.
        std::shared_ptr<const WeightBank> bank =
            WeightStore::instance().get(weightKey(net, layer, opts));

        LayerTrace lt;
        lt.spec = layer;
        lt.imap = quantizeTensor(activ, opts.activationRelError,
                                 &lt.imapFracBits);

        // Float forward for the next layer's input.
        Tensor3<float> out = convolve(activ, dequantizeWeights(*bank),
                                      layer.stride, layer.dilation);
        lt.weights = std::move(bank);
        if (layer.relu) {
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out.data()[i] < 0.0f)
                    out.data()[i] = 0.0f;
            }
        }
        // Strided layers shrink the resolution for everything after.
        cur_divisor *= layer.stride;

        trace.layers.push_back(std::move(lt));
        activ = std::move(out);
    }
    return trace;
}

} // namespace diffy
