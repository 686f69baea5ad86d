/// \file autoencoder.hpp
/// \brief TinyMLPerf anomaly-detection AutoEncoder (paper §III-B use case).
///
/// The MLPerf Tiny "AD" model is a fully-connected autoencoder:
///   640 -> 128 -> 128 -> 128 -> 128 -> 8 -> 128 -> 128 -> 128 -> 128 -> 640
/// with ReLU between layers. The paper maps its training (forward + backward)
/// onto RedMulE as a sequence of matrix multiplications with batch size B:
///   forward  layer l: Y_l (out x B)  = W_l (out x in)  * X_l (in x B)
///   backward layer l: dX_l (in x B)  = W_l^T (in x out) * dY_l (out x B)
///                     dW_l (out x in) = dY_l (out x B)  * X_l^T (B x in)
/// Forward (and dX) matmuls have K = B, so at B = 1 the accelerator cannot
/// fill its H*(P+1) pipeline slots -- the effect Fig. 4c/4d quantifies.
///
/// This module provides the configuration, the training-step plan and the
/// memory footprints. training_step_gemms() is THE definition of which GEMMs
/// a training step runs, in what order and with which real shapes: the
/// cluster executor (cluster::NetworkRunner) runs exactly its entries, its
/// TCDM sizing reads them, and the Fig. 4c/4d benches time them. The
/// functional model -- He initialisation, forward pass and FP16 training
/// step -- is NetworkGraph::autoencoder plus the reference executor in
/// workloads/network.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/gemm.hpp"

namespace redmule::workloads {

struct AutoencoderConfig {
  uint32_t input_dim = 640;
  std::vector<uint32_t> hidden = {128, 128, 128, 128, 8, 128, 128, 128, 128};
  uint32_t batch = 1;

  /// Layer dimension chain: input_dim, hidden..., input_dim.
  std::vector<uint32_t> dims() const;
  size_t n_layers() const { return hidden.size() + 1; }
};

/// One GEMM of a training step: layer \c layer's \c phase, with its real
/// (unpadded) shape named "L<layer>.fw|dW|dX".
struct AeGemm {
  GemmShape shape;
  unsigned layer = 0;
  enum class Phase { kForward, kGradInput, kGradWeight } phase = Phase::kForward;

  friend bool operator==(const AeGemm&, const AeGemm&) = default;

  bool backward() const { return phase != Phase::kForward; }
  static const char* phase_name(Phase p);
};

/// The training-step plan of the network with dimension chain \p dims at
/// \p batch columns: the forward GEMM of every layer in layer order, then
/// the backward pass from the last layer down -- per layer its dW, then
/// its dX, except that layer 0 has no dX (nothing consumes it). The forward
/// pass (inference) is the first dims.size() - 1 entries.
std::vector<AeGemm> training_step_gemms(const std::vector<uint32_t>& dims,
                                        uint32_t batch);

/// Memory footprints (paper: B = 16 fits in 184 kB of L2 for activations).
size_t autoencoder_weight_bytes(const AutoencoderConfig& cfg);
size_t autoencoder_activation_bytes(const AutoencoderConfig& cfg);

}  // namespace redmule::workloads
