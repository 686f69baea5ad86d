/// \file sharding.hpp
/// \brief Sharded multi-cluster execution of one training-step workload,
///        gated by bit-exactness against the single-cluster run.
///
/// One training step is split data-parallel over the batch across K modeled
/// clusters: shard k runs the existing NetworkRunner forward/dX pipeline on
/// its column slice (cluster/network_runner.hpp, training_slice_staged), and
/// the per-shard dW contributions are reduced on ONE cluster in fixed shard
/// order (DwAccumulator). The result is bit-identical to the one-cluster
/// training_step -- the whole point of the design:
///
///  - Forward and dX GEMMs reduce over *feature* dimensions; batch columns
///    are independent FMA lanes, so slicing columns never changes a bit of
///    any column's result.
///  - The dW GEMMs reduce over the *batch*: sharding the batch cuts those
///    reduction chains. The tiled pipeline's chain-cutting contract (see
///    TiledGemmRunner::run_staged) makes any H-aligned cut exact, so
///    plan_shards slices in quanta of H columns (2H when H is odd, keeping
///    every interior slice even -- a mid-chain pad column would flip a -0
///    accumulator to +0). The reduce cluster continues each chain by
///    preloading its resident partial as the Y operand, exactly the engine's
///    own between-tiles handoff.
///  - Shards ship the *padded L2 bit patterns* the monolithic dW GEMMs would
///    read (each layer's dY and input-activation slice); the accumulator
///    stages them verbatim, so there is no re-padding step to get wrong.
///
/// The K clusters are modeled, not instantiated: the slices run one after
/// another in shard order on the job's own cluster, each from reset() with
/// its slice template staged, and the reduction follows after one more
/// reset(). Every slice therefore sees exactly the state a dedicated fresh
/// cluster would, and its cycle count is what that cluster would measure.
///
/// A simple cost model folds the inter-cluster L2 traffic this would cost on
/// real hardware into the reported stats: each shard's gradient shipment
/// crosses a link of kLinkBytesPerCycle with a fixed kHopLatencyCycles, and
/// the modeled makespan overlaps shard compute with the fixed-order
/// reduction pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "api/workload.hpp"
#include "cluster/network_runner.hpp"
#include "workloads/network.hpp"

namespace redmule::shard {

/// One shard's batch-column range: columns [begin, begin + count).
struct ShardSlice {
  uint32_t begin = 0;
  uint32_t count = 0;
};

/// Slices \p batch columns into at most \p shards H-aligned ranges. Slice
/// boundaries fall on multiples of the slice quantum -- H columns for even H,
/// 2H for odd H -- so every cut of the dW reduction chains is H-aligned AND
/// every interior slice stays even (no mid-chain pad columns); only the last
/// slice is ragged, and its pad coincides with the oracle's own batch pad.
/// Small batches yield fewer than \p shards slices (never an empty one).
std::vector<ShardSlice> plan_shards(uint32_t batch, uint32_t shards,
                                    const core::Geometry& geometry);

/// Inter-cluster traffic model: every byte a shard exchanges with the reduce
/// cluster crosses one link. Deliberately simple -- a bandwidth and a hop
/// latency -- the same shape as the paper's L2-interconnect accounting.
constexpr uint64_t kLinkBytesPerCycle = 16;  ///< per-link L2 bandwidth
constexpr uint64_t kHopLatencyCycles = 64;   ///< fixed per-transfer latency

/// Stats of one sharded training step. Cycle figures are *modeled* for the
/// multi-cluster schedule (per-shard compute measured from reset, plus
/// cost-model transfers, plus the measured fixed-order reduction); they are
/// deterministic functions of the spec like every other counter here.
struct ShardStats {
  uint32_t shards = 0;                  ///< slices actually used
  std::vector<uint64_t> shard_cycles;   ///< per-shard forward+dX cycles
  std::vector<uint64_t> reduce_cycles;  ///< per-slice accumulate cycles
  uint64_t makespan_cycles = 0;  ///< modeled end-to-end latency of the step
  uint64_t interconnect_bytes = 0;  ///< modeled inter-cluster L2 traffic
  uint64_t macs = 0;                ///< useful MACs (identical to 1-cluster)
  uint64_t advance_cycles = 0;      ///< summed over every GEMM of every shard
  uint64_t stall_cycles = 0;
  uint64_t fma_ops = 0;
};

/// Outcome of one sharded training step: bit-identical to
/// NetworkRunner::training_step on one cluster for the same inputs.
struct ShardedTrainingResult {
  core::MatrixF16 out;              ///< forward output, (out_dim x batch)
  std::vector<core::MatrixF16> dw;  ///< reduced per-layer weight gradients
  double mse = 0.0;
  ShardStats stats;
};

/// One sharded training step on \p cluster: slice k runs in shard order
/// (reset, stage the slice template, forward + dX + capture), then the
/// per-slice dW captures are reduced in the same order after one more reset.
/// \p net is updated with the SGD step when \p lr is nonzero, from the
/// *reduced* gradients over the full batch. \p ctx robustness controls
/// (cycle budget, cancel, fault plan) arm afresh for every slice and for the
/// reduction, while the wall-clock budget covers the whole step (it starts
/// once, see api::pin_wall_budget); a faulted slice surfaces as its typed
/// error -- the
/// lowest-indexed failing shard, since later slices never start -- never a
/// silently wrong reduction.
ShardedTrainingResult run_sharded_step(cluster::Cluster& cluster,
                                       workloads::NetworkGraph& net,
                                       const core::MatrixF16& x,
                                       const core::MatrixF16& target,
                                       double lr, uint32_t shards,
                                       const api::RunContext& ctx = {});

}  // namespace redmule::shard
