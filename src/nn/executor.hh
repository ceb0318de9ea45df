/**
 * @file
 * Quantized forward-pass executor with trace capture.
 *
 * The executor synthesizes He-initialized weights for a NetworkSpec,
 * builds the network-specific input encoding from an RGB scene
 * (luminance for VDSR, Bayer pack for JointNet, 2x2 pixel-unshuffle +
 * noise channels for FFDNet), runs the forward pass in float, and
 * quantizes each layer's activations to 16-bit fixed point — producing
 * the value streams (LayerTraces) that all accelerator models consume.
 *
 * Spatial resampling between layers (max pooling on the way down,
 * pixel shuffle on the way up) is derived from each layer's
 * resolutionDivisor so classification backbones and JointNet's
 * two-resolution pipeline run end to end.
 */

#ifndef DIFFY_NN_EXECUTOR_HH
#define DIFFY_NN_EXECUTOR_HH

#include <cstdint>

#include "common/simd.hh"
#include "nn/layer.hh"
#include "nn/trace.hh"
#include "nn/weight_store.hh"
#include "tensor/tensor.hh"

namespace diffy
{

/** Options controlling a traced forward pass. */
struct ExecutorOptions
{
    /** Seed namespace for the synthetic weights. */
    std::uint64_t weightSeed = 0xD1FF;
    /**
     * Activation quantization quality bound: the largest relative RMS
     * quantization error tolerated per layer. The executor picks the
     * coarsest fixed-point step meeting it, mirroring the paper's
     * quality-preserving precision profiling (Table III): activations
     * end up carrying ~8-12 significant bits rather than all 16.
     */
    double activationRelError = 0.01;
    /** Fraction of weights to randomly zero (SCNN sparsity studies). */
    double weightSparsity = 0.0;
    /** Seed for the sparsification mask. */
    std::uint64_t sparsitySeed = 0x5C44;
};

/**
 * Build the first-layer input tensor for @p net from an RGB scene in
 * [0, 1] (3, H, W). Handles the per-network input encodings described
 * in the file comment. H and W must be even for the half-resolution
 * encodings.
 */
Tensor3<float> buildNetworkInput(const NetworkSpec &net,
                                 const Tensor3<float> &rgb);

/** The store key of @p layer's weights under @p opts. */
WeightKey weightKey(const NetworkSpec &net, const ConvLayerSpec &layer,
                    const ExecutorOptions &opts);

/** Synthesize the quantized filter bank of @p key. */
FilterBankI16 synthesizeWeights(const WeightKey &key, int *frac_bits_out);

/**
 * Run the full network on @p rgb and capture a per-layer trace whose
 * layers share WeightStore::instance()'s banks. The scene's resolution
 * bounds the trace resolution; totals are scaled analytically to
 * larger frames by the simulators.
 */
NetworkTrace runNetwork(const NetworkSpec &net, const Tensor3<float> &rgb,
                        const ExecutorOptions &opts = {});

/**
 * Direct convolution in float (same-padding, stride, dilation) through
 * the dispatched KernelTable::convolveF32. Used by the executor and
 * as the golden model for the fixed-point differential-convolution
 * tests. Each output sums its (c, ky, kx) taps in order from +0.0f
 * with separate multiply and add, so with finite inputs the result
 * is the same on every kernel table and build.
 */
Tensor3<float> convolve(const Tensor3<float> &input,
                        const Tensor4<float> &weights,
                        int stride, int dilation);

/** convolve() through an explicit kernel table (oracle tests). */
Tensor3<float> convolve(const Tensor3<float> &input,
                        const Tensor4<float> &weights, int stride,
                        int dilation, const simd::KernelTable &kernels);

/** 2x2 (or larger) max pooling by an integer factor. */
Tensor3<float> maxPool(const Tensor3<float> &input, int factor);

/**
 * Pixel shuffle: (C*r^2, H, W) -> (C, H*r, W*r). The channel count
 * must be divisible by r^2.
 */
Tensor3<float> pixelShuffle(const Tensor3<float> &input, int factor);

} // namespace diffy

#endif // DIFFY_NN_EXECUTOR_HH
