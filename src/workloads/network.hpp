/// \file network.hpp
/// \brief The paper's network -- a ReLU-chained linear autoencoder -- and its
/// bit-exact GEMM lowering.
///
/// The paper's headline use case (§III-B) is not a single GEMM but a whole
/// training step of the TinyMLPerf autoencoder: a chain of fully connected
/// FP16 GEMMs with activations flowing between layers. NetworkGraph describes
/// exactly that shape -- a chain of weight matrices with ReLU between
/// consecutive layers and none after the last, no bias -- and this module
/// defines the *lowering contract* every executor of the chain follows, so
/// the cycle-accurate cluster executor (cluster/network_runner.hpp), the
/// per-layer monolithic driver path, and the golden reference here all
/// produce bit-identical FP16 results.
///
/// The lowering contract (batch B, padded batch Bp = B rounded up to even;
/// every dimension that becomes a DMA row length is likewise rounded up to
/// even, pad entries zero):
///
///  1. Layer l forward: pre_l (out x Bp) = Wp_l (out x inp) * A_l (inp x Bp),
///     accumulated with the engine's FP16 FMA chain in ascending-n order and
///     the array's zero-padding FMAs (golden_gemm_padded) -- pad rows/columns
///     are zero, so they contribute only fma(+-0, ...) steps that both the
///     hardware and the golden execute identically.
///  2. ReLU between layers: A_{l+1} := relu(pre_l) for every layer but the
///     last, with relu(v) = (v < 0 ? +0 : v); the last layer's pre-activation
///     is the network output. Note -0 and NaN pass through, matching both
///     the FP16 comparison (Float16::lt) and the double-precision mirror
///     (to_double < 0.0) bit-for-bit.
///  3. Training step: dY = fp16(out - target) on the real region (pad
///     columns stay exactly +0, so the batch-padded dW reduction adds only
///     zero products); per layer, dW_l = dY * A_l^T (reduction over Bp) and
///     dX_l = Wp_l^T * dY (reduction over outp), dX masked to +0 where the
///     *pre-activation* was < 0; optional SGD update
///     w := fp16_sub(w, fp16(lr/B * dw)), the rule apply_sgd_update applies.
///
/// The ReLU rule has a double-precision golden mirror defined below; both are
/// exact (asserted exhaustively in tests/cluster/test_network_runner.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "workloads/autoencoder.hpp"
#include "workloads/gemm.hpp"

namespace redmule::workloads {

// --- ReLU (FP16) and its double-precision golden mirror --------------------

/// ReLU: strictly negative values become +0; -0 and NaN pass through.
inline fp16::Float16 relu_f16(fp16::Float16 v) {
  return fp16::Float16::lt(v, fp16::Float16{}) ? fp16::Float16{} : v;
}
/// Double-precision mirror of relu_f16 (bit-exact: -0.0 < 0.0 is false and
/// NaN comparisons are false in both domains).
inline fp16::Float16 relu_golden(fp16::Float16 v) {
  return v.to_double() < 0.0 ? fp16::Float16{} : v;
}

// --- Network description ---------------------------------------------------

/// One linear layer: an (out x in) weight matrix.
struct NetworkLayer {
  MatrixF16 weight;

  /// Activation-vector length this layer consumes / produces.
  uint32_t in_dim() const { return static_cast<uint32_t>(weight.cols()); }
  uint32_t out_dim() const { return static_cast<uint32_t>(weight.rows()); }
};

/// A chain of linear layers with ReLU between consecutive layers and none
/// after the last: the workload description the executors consume. Layers
/// must chain (layer l+1's in_dim == layer l's out_dim).
class NetworkGraph {
 public:
  NetworkGraph& add_linear(MatrixF16 weight);

  size_t n_layers() const { return layers_.size(); }
  const NetworkLayer& layer(size_t l) const { return layers_.at(l); }
  const std::vector<NetworkLayer>& layers() const { return layers_; }
  MatrixF16& weight(size_t l) { return layers_.at(l).weight; }

  uint32_t input_dim() const;
  uint32_t output_dim() const;
  /// Dimension chain: input_dim, then every layer's out_dim.
  std::vector<uint32_t> dims() const;

  /// The TinyMLPerf autoencoder as a NetworkGraph. Layer l's (d[l+1] x d[l])
  /// weights are drawn from \p rng in layer order, uniform in
  /// +-sqrt(2 / d[l]) (He-style, scaled for FP16 range). reference_forward /
  /// reference_training_step over this graph are the functional model of the
  /// paper's use case.
  static NetworkGraph autoencoder(const AutoencoderConfig& cfg, Xoshiro256& rng);

 private:
  std::vector<NetworkLayer> layers_;
};

// --- Golden reference executor ---------------------------------------------
// Executes the lowering contract above with golden_gemm_padded for every
// GEMM and the double-precision ReLU mirror, so its outputs are
// bit-identical to the cycle-accurate cluster executor for the same
// geometry. This is the oracle test_network_runner and bench_network
// compare against.

/// The GEMM primitive the reference executor lowers onto: gets the *padded*
/// operands and must return the full padded product. Defaults to
/// golden_gemm_padded; tests substitute the per-layer monolithic driver path
/// (RedmuleDriver::gemm on a TCDM-resident cluster) to prove the whole chain
/// is bit-identical across executors.
using GemmFn = std::function<MatrixF16(const MatrixF16& x, const MatrixF16& w)>;

struct NetworkForwardRef {
  std::vector<MatrixF16> pre;  ///< per-layer pre-activation outputs (unpadded)
  MatrixF16 out;  ///< the network output (== pre.back(): no final ReLU)
};
NetworkForwardRef reference_forward(const NetworkGraph& net, const MatrixF16& x,
                                    const core::Geometry& g, GemmFn gemm = {});

struct NetworkTrainingRef {
  MatrixF16 out;               ///< forward output (pre-activation of last layer)
  std::vector<MatrixF16> pre;  ///< per-layer pre-activations
  std::vector<MatrixF16> dw;   ///< per-layer weight gradients (out x in)
  double mse = 0.0;            ///< mean squared error vs the target
};
/// One training step: forward, MSE loss gradient vs \p target, backward
/// (dW for every layer, dX chained through the ReLU masks), and -- when
/// \p lr is nonzero -- the in-place FP16 SGD update of net's weights.
NetworkTrainingRef reference_training_step(NetworkGraph& net, const MatrixF16& x,
                                           const MatrixF16& target, double lr,
                                           const core::Geometry& g,
                                           GemmFn gemm = {});

/// The SGD update rule shared by every executor (reference_training_step,
/// the cluster and shard executors):
/// w := fp16_sub(w, fp16((lr / batch) * dw)), elementwise.
void apply_sgd_update(MatrixF16& w, const MatrixF16& dw, double lr,
                      uint32_t batch);

}  // namespace redmule::workloads
