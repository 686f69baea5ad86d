#include "shard/sharding.hpp"

#include <algorithm>

#include "cluster/driver.hpp"
#include "common/check.hpp"

namespace redmule::shard {

namespace {

using cluster::NetworkRunner;
using core::MatrixF16;

/// Ceiling-divide a byte count by the link bandwidth into whole cycles.
uint64_t transfer_cycles(uint64_t bytes) {
  return (bytes + kLinkBytesPerCycle - 1) / kLinkBytesPerCycle;
}

MatrixF16 col_slice(const MatrixF16& m, uint32_t begin, uint32_t count) {
  MatrixF16 s(m.rows(), count);
  for (size_t r = 0; r < m.rows(); ++r)
    for (uint32_t c = 0; c < count; ++c) s(r, c) = m(r, begin + c);
  return s;
}

}  // namespace

std::vector<ShardSlice> plan_shards(uint32_t batch, uint32_t shards,
                                    const core::Geometry& geometry) {
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  REDMULE_REQUIRE(shards >= 1, "shard count must be positive");
  // The slice quantum: H-aligned cuts keep the dW reduction chains exact,
  // and an even quantum keeps every interior slice free of pad columns (a
  // mid-chain +0 pad folded into a -0 accumulator would flip it to +0).
  const uint32_t q = geometry.h % 2 == 0 ? geometry.h : 2 * geometry.h;
  const uint32_t units = (batch + q - 1) / q;  // last unit may be ragged
  const uint32_t k = std::min(shards, units);

  std::vector<ShardSlice> slices;
  slices.reserve(k);
  uint32_t unit0 = 0;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t n_units = units / k + (i < units % k ? 1 : 0);
    const uint32_t begin = unit0 * q;
    slices.push_back({begin, std::min((unit0 + n_units) * q, batch) - begin});
    unit0 += n_units;
  }
  return slices;
}

ShardedTrainingResult run_sharded_step(cluster::Cluster& cluster,
                                       workloads::NetworkGraph& net,
                                       const MatrixF16& x,
                                       const MatrixF16& target, double lr,
                                       uint32_t shards,
                                       const api::RunContext& ctx) {
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(target.rows() == net.output_dim() && target.cols() == batch,
                  "target shape mismatch");
  const std::vector<ShardSlice> slices =
      plan_shards(batch, shards, cluster.config().geometry);
  const auto n_slices = static_cast<uint32_t>(slices.size());

  // Every slice and the reduction arm their own control, so the cycle
  // budget and the fault plan restart as on separate clusters; the wall
  // budget is the job's, counted once from here.
  const api::RunContext run_ctx = api::pin_wall_budget(ctx);

  ShardedTrainingResult res;
  res.stats.shards = n_slices;
  auto fold_gemms = [&res](const cluster::NetworkStats& stats) {
    for (const cluster::NetworkGemmStats& gs : stats.gemms) {
      res.stats.advance_cycles += gs.tiled.advance_cycles;
      res.stats.stall_cycles += gs.tiled.stall_cycles;
      res.stats.fma_ops += gs.tiled.fma_ops;
    }
    res.stats.macs += stats.macs;
  };

  // Phase 1: every slice starts from reset() with its own template staged,
  // exactly as on a dedicated fresh cluster. The template also zeroes the dW
  // regions a slice never touches; on a reset cluster those already read
  // zero and zero writes do not materialize pages, so it is bit- and
  // cycle-invisible.
  std::vector<NetworkRunner::TrainingSliceResult> parts;
  parts.reserve(n_slices);
  uint32_t max_sp = 0;
  for (const ShardSlice& s : slices) {
    cluster.reset();
    api::ScopedRunControl control(cluster, run_ctx);
    cluster::RedmuleDriver drv(cluster);
    NetworkRunner runner(cluster, drv);
    runner.stage_training_template(net, s.count);
    parts.push_back(runner.training_slice_staged(
        net, col_slice(x, s.begin, s.count),
        col_slice(target, s.begin, s.count)));
    res.stats.shard_cycles.push_back(parts.back().stats.total_cycles);
    fold_gemms(parts.back().stats);
    max_sp = std::max(max_sp, pad_even(s.count));
  }

  // Phase 2: fold every slice into the resident partials IN SHARD ORDER --
  // the fixed order is what makes the reduced bits equal the monolithic
  // chains.
  cluster.reset();
  {
    api::ScopedRunControl control(cluster, run_ctx);
    cluster::RedmuleDriver drv(cluster);
    cluster::DwAccumulator acc(cluster, drv, net, max_sp);
    for (uint32_t k = 0; k < n_slices; ++k) {
      const cluster::NetworkStats rs = acc.accumulate(parts[k].grads, k == 0);
      res.stats.reduce_cycles.push_back(rs.total_cycles);
      fold_gemms(rs);
    }
    res.dw = acc.gradients();
  }

  // --- Assemble the full-batch output and host-side epilogue ---------------
  // Columns are bit-identical to the monolithic run's, and the MSE sum walks
  // them in its exact (row-outer) loop order -- double addition is not
  // associative, so the order is part of the contract. The SGD update then
  // sees bit-identical gradients and the full batch count.
  const uint32_t out_dim = net.output_dim();
  res.out = MatrixF16(out_dim, batch);
  for (uint32_t k = 0; k < n_slices; ++k)
    for (uint32_t r = 0; r < out_dim; ++r)
      for (uint32_t c = 0; c < slices[k].count; ++c)
        res.out(r, slices[k].begin + c) = parts[k].out(r, c);
  double mse = 0.0;
  for (uint32_t r = 0; r < out_dim; ++r)
    for (uint32_t c = 0; c < batch; ++c) {
      const double diff =
          res.out(r, c).to_double() - target(r, c).to_double();
      mse += diff * diff;
    }
  res.mse = mse / (static_cast<double>(out_dim) * batch);
  if (lr != 0.0)
    for (size_t l = 0; l < net.n_layers(); ++l)
      workloads::apply_sgd_update(net.weight(l), res.dw[l], lr, batch);

  // --- Cost model ----------------------------------------------------------
  // Per shard: weights (both orientations) + its input/target slices go out,
  // the captured (dY, activation) operands come back; each transfer pays the
  // hop latency plus bytes/bandwidth. The reduction pipelines in fixed shard
  // order behind the arrivals. One slice means one cluster: no traffic.
  if (n_slices == 1) {
    res.stats.makespan_cycles =
        res.stats.shard_cycles[0] + res.stats.reduce_cycles[0];
    return res;
  }
  uint64_t weight_bytes = 0, capture_row_bytes = 0;
  for (const workloads::NetworkLayer& l : net.layers()) {
    const auto m64 = static_cast<uint64_t>(l.out_dim());
    const auto n64 = static_cast<uint64_t>(l.in_dim());
    weight_bytes += (m64 * pad_even(l.in_dim()) +
                     n64 * pad_even(l.out_dim())) * 2;
    capture_row_bytes += (m64 + pad_even(l.in_dim())) * 2;
  }
  const uint64_t input_row_bytes =
      2ull * (pad_even(net.input_dim()) + net.output_dim());
  uint64_t reduce_free = 0;
  for (uint32_t k = 0; k < n_slices; ++k) {
    const uint64_t sp = pad_even(slices[k].count);
    const uint64_t dispatch_bytes = weight_bytes + input_row_bytes * sp;
    const uint64_t capture_bytes = capture_row_bytes * sp;
    res.stats.interconnect_bytes += dispatch_bytes + capture_bytes;
    const uint64_t arrive = kHopLatencyCycles +
                            transfer_cycles(dispatch_bytes) +
                            res.stats.shard_cycles[k] + kHopLatencyCycles +
                            transfer_cycles(capture_bytes);
    const uint64_t start = std::max(arrive, reduce_free);
    reduce_free = start + res.stats.reduce_cycles[k];
  }
  res.stats.makespan_cycles = reduce_free;
  return res;
}

}  // namespace redmule::shard
