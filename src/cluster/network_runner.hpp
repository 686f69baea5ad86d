/// \file network_runner.hpp
/// \brief End-to-end multi-layer network executor on the tiled L2 pipeline.
///
/// Executes a whole workloads::NetworkGraph forward pass -- and, for linear
/// chains, the full training step (forward, dX, dW, optional SGD update) --
/// on ONE cluster:
///
///  - weights (and, for training, their transposes) are staged in L2 once
///    per call, padded per the lowering contract in workloads/network.hpp;
///  - inter-layer activations STAY RESIDENT IN L2: each layer's GEMM runs
///    through TiledGemmRunner::run_staged, so per-layer operands stream
///    through the TCDM tile buffers with DMA/compute overlap, and the Z
///    region of layer l is directly the W operand region of layer l+1 --
///    no activation ever round-trips through the host;
///  - elementwise bias/ReLU/loss-gradient steps run between GEMMs with the
///    FP16 rules of workloads/network.hpp (applied through the zero-time L2
///    backdoor: on the real cluster these run on the 8 RISC-V cores in
///    parallel with the next layer's DMA prefetch, and the paper's cycle
///    accounting attributes them no accelerator time; the reported cycles
///    cover every GEMM *and* every DMA beat of the tile streams).
///
/// Results are bit-identical to workloads::reference_forward /
/// reference_training_step for the same geometry, and to the per-layer
/// monolithic driver path (tests/cluster/test_network_runner.cpp asserts
/// both). Determinism: a run is a pure function of (net, inputs,
/// cluster config) -- no wall clock, no thread dependence -- so network
/// jobs keep the batch runner's bit-reproducibility contract.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "workloads/network.hpp"

namespace redmule::cluster {

/// Counters of one lowered GEMM of the network execution.
struct NetworkGemmStats {
  unsigned layer = 0;
  workloads::AeGemm::Phase phase = workloads::AeGemm::Phase::kForward;
  workloads::GemmShape shape;  ///< real (unpadded) extents
  TiledGemmStats tiled;        ///< whole-pipeline counters incl. DMA

  friend bool operator==(const NetworkGemmStats&, const NetworkGemmStats&) = default;
};

struct NetworkStats {
  uint64_t total_cycles = 0;  ///< cluster cycles, first tile load to last Z byte
  uint64_t macs = 0;          ///< useful MACs of the lowered chains
  std::vector<NetworkGemmStats> gemms;

  double macs_per_cycle() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(macs) / static_cast<double>(total_cycles);
  }
  /// Cycles spent in GEMMs of one phase (forward / dX / dW).
  uint64_t phase_cycles(workloads::AeGemm::Phase p) const {
    uint64_t c = 0;
    for (const NetworkGemmStats& s : gemms)
      if (s.phase == p) c += s.tiled.total_cycles;
    return c;
  }
};

class NetworkRunner {
 public:
  NetworkRunner(Cluster& cluster, RedmuleDriver& driver);

  struct ForwardResult {
    core::MatrixF16 out;  ///< (output_dim x batch)
    NetworkStats stats;
  };
  /// Whole-network forward pass; \p x is (input_dim x batch). Conv layers
  /// require batch == 1 (the im2col lowering is per-image).
  ForwardResult forward(const workloads::NetworkGraph& net, const MatrixF16& x);

  struct TrainingResult {
    core::MatrixF16 out;              ///< forward output (pre-activation)
    std::vector<core::MatrixF16> dw;  ///< per-layer weight gradients
    double mse = 0.0;                 ///< loss before the update
    NetworkStats stats;
  };
  /// One full training step on the cluster: forward, MSE gradient vs
  /// \p target, backward dX/dW chains, and -- when \p lr is nonzero -- the
  /// FP16 SGD update applied to \p net's (host) weights. Linear chains only.
  /// Equivalent to stage_training_template() followed by
  /// training_step_staged() -- bit-identical, same simulated cycles.
  TrainingResult training_step(workloads::NetworkGraph& net, const MatrixF16& x,
                               const MatrixF16& target, double lr);

  /// Stages the per-network half of the training layout: every layer's
  /// weights in both orientations plus the zeroed gradient/activation
  /// regions. All writes go through the zero-simulated-time L2 backdoor and
  /// touch regions disjoint from the per-job input, so splitting staging
  /// from execution is invisible in cycles and in every staged bit. After
  /// this the cluster is quiescent and snapshot-able: state::snapshot() of
  /// the staged cluster is the warm-start template image the pool's
  /// COW fork path (api::ClusterPool::acquire_template) clones per job.
  void stage_training_template(const workloads::NetworkGraph& net,
                               uint32_t batch);

  /// The execution half of training_step(): stages only the per-job input
  /// and runs forward/backward/update over an L2 already holding the
  /// template staged by stage_training_template() (directly, or restored
  /// from its snapshot image). \p net must match the staged template.
  TrainingResult training_step_staged(workloads::NetworkGraph& net,
                                      const MatrixF16& x,
                                      const MatrixF16& target, double lr);

  /// Captured backward operands of one batch slice: for every layer, the
  /// exact padded L2 bit patterns the training_step dW GEMMs would read.
  /// Staging these bits verbatim on another cluster and running the same
  /// GEMM reproduces the dW chain segment bit-identically (the lowering
  /// contract's staging is value-faithful).
  struct SliceBackward {
    uint32_t batch = 0;         ///< real slice columns
    uint32_t padded_batch = 0;  ///< staged columns (== batch for even slices)
    /// Per layer: the dW X operand, (m_l x padded_batch) -- the dY bits.
    std::vector<core::MatrixF16> dy;
    /// Per layer: the padded input activation, (pad_even(n_l) x
    /// padded_batch); its transpose is the dW W operand.
    std::vector<core::MatrixF16> act;
  };
  struct TrainingSliceResult {
    core::MatrixF16 out;  ///< forward output, real (out_dim x batch)
    SliceBackward grads;
    NetworkStats stats;  ///< forward + dX GEMMs executed on this cluster
  };
  /// One batch *slice* of a training step, for the sharded step
  /// (shard/sharding.hpp), over a template staged by
  /// stage_training_template(net, slice batch). The same executor as
  /// training_step_staged -- same layout, same forward/dX GEMMs, plans and
  /// per-column bits -- but every dW GEMM is skipped and the operands it
  /// would have read are captured instead, for a DwAccumulator to reduce in
  /// fixed shard order. \p net is never updated (the SGD step needs the
  /// fully reduced gradients).
  TrainingSliceResult training_slice_staged(const workloads::NetworkGraph& net,
                                            const MatrixF16& x,
                                            const MatrixF16& target);

  /// L2 bytes the training-step layout needs for a linear chain with the
  /// given dimension sequence (ReLU between layers, no bias -- the
  /// autoencoder shape). The batch runner sizes pooled clusters with this.
  static uint64_t training_l2_bytes(const std::vector<uint32_t>& dims,
                                    uint32_t batch);
  /// Smallest TCDM budget that fits the minimum aligned tile set of every
  /// lowered GEMM of that training step.
  static uint64_t min_tcdm_bytes(const std::vector<uint32_t>& dims,
                                 uint32_t batch, const core::Geometry& g);

 private:
  Cluster& cl_;
  RedmuleDriver& drv_;
};

/// Deterministic fixed-order reduction of per-shard weight gradients on one
/// cluster. Every layer's partial dW stays resident in L2, and each
/// accumulate() continues the layer's reduction chain with one
/// accumulate-GEMM: the resident partial is the Y operand, the shard's
/// (dY, act^T) capture the X/W operands. Because shard slice boundaries are
/// H-aligned (shard::plan_shards) these cuts obey the tiled pipeline's
/// chain-cutting contract, so -- fed in fixed shard order -- the reduced
/// gradient is bit-identical to the single-cluster monolithic dW chain,
/// regardless of which clusters computed the slices or when they finished.
class DwAccumulator {
 public:
  /// Builds the resident layout (per-layer padded dW partials + staging
  /// scratch sized for \p max_padded_batch columns) on \p cluster's L2.
  DwAccumulator(Cluster& cluster, RedmuleDriver& driver,
                const workloads::NetworkGraph& net, uint32_t max_padded_batch);

  /// Folds one slice into the resident partials. \p first starts every
  /// layer's chain as a plain GEMM; otherwise the partial accumulates in
  /// place (Z region doubles as Y). Slices MUST arrive in shard order --
  /// that fixed order is the bit-exactness contract.
  NetworkStats accumulate(const NetworkRunner::SliceBackward& grads,
                          bool first);

  /// The reduced real (m x n) per-layer gradients; call after the last
  /// accumulate().
  std::vector<core::MatrixF16> gradients() const;

  /// Bytes of one full resident partial-gradient set -- what a shard ships
  /// to the reduce cluster (the cost model's per-hop payload).
  uint64_t gradient_bytes() const { return gradient_bytes_; }

  /// L2 bytes the accumulator layout needs (dims as in
  /// NetworkRunner::training_l2_bytes; always <= that training layout for
  /// the same dims/batch, so training-sized pools fit it).
  static uint64_t l2_bytes(const std::vector<uint32_t>& dims, uint32_t batch);

 private:
  Cluster& cl_;
  RedmuleDriver& drv_;
  struct LayerSlot {
    uint32_t m = 0;   ///< real output rows
    uint32_t n = 0;   ///< real input cols
    uint32_t dw = 0;  ///< resident partial, (m x pad_even(n))
  };
  std::vector<LayerSlot> layers_;
  uint32_t dy_addr_ = 0;     ///< scratch, (max m x max_padded_batch)
  uint32_t act_t_addr_ = 0;  ///< scratch, (max_padded_batch x max pad_even(n))
  uint32_t max_padded_batch_ = 0;
  uint64_t gradient_bytes_ = 0;
};

}  // namespace redmule::cluster
