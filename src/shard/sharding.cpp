#include "shard/sharding.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "cluster/driver.hpp"
#include "common/check.hpp"

namespace redmule::shard {

namespace {

using cluster::NetworkRunner;
using core::MatrixF16;

uint32_t pad_even(uint32_t v) { return v + (v & 1u); }

/// Ceiling-divide a byte count by the link bandwidth into whole cycles.
uint64_t transfer_cycles(uint64_t bytes, double bytes_per_cycle) {
  if (bytes == 0) return 0;
  REDMULE_REQUIRE(bytes_per_cycle > 0.0,
                  "cost model needs positive link bandwidth");
  const double cycles = static_cast<double>(bytes) / bytes_per_cycle;
  const auto whole = static_cast<uint64_t>(cycles);
  return whole + (static_cast<double>(whole) < cycles ? 1 : 0);
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

ShardExecutor::ShardExecutor() : ShardExecutor(Options()) {}

ShardExecutor::ShardExecutor(Options opts) : opts_(std::move(opts)) {}

ShardedTrainingResult ShardExecutor::run(cluster::Cluster& reduce_cluster,
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
      plan_shards(batch, shards, reduce_cluster.config().geometry);
  const auto n_slices = static_cast<uint32_t>(slices.size());

  ShardedTrainingResult res;
  res.stats.shards = n_slices;

  struct Slot {
    NetworkRunner::TrainingSliceResult result;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(n_slices);
  uint32_t max_sp = 0;
  for (const ShardSlice& s : slices) max_sp = std::max(max_sp, pad_even(s.count));

  auto fold_gemms = [&res](const cluster::NetworkStats& stats) {
    for (const cluster::NetworkGemmStats& gs : stats.gemms) {
      res.stats.advance_cycles += gs.tiled.advance_cycles;
      res.stats.stall_cycles += gs.tiled.stall_cycles;
      res.stats.fma_ops += gs.tiled.fma_ops;
    }
    res.stats.macs += stats.macs;
  };
  // Phase 2: fold every slice into the resident partials IN SHARD ORDER --
  // the fixed order is what makes completion order invisible in the bits.
  auto reduce_all = [&](cluster::RedmuleDriver& drv) {
    cluster::DwAccumulator acc(reduce_cluster, drv, net, max_sp, opts_.runner);
    for (uint32_t k = 0; k < n_slices; ++k) {
      const cluster::NetworkStats rs =
          acc.accumulate(slots[k].result.grads, k == 0);
      res.stats.reduce_cycles.push_back(rs.total_cycles);
      fold_gemms(rs);
    }
    return acc.gradients();
  };

  if (n_slices == 1) {
    // Degenerate plan: the whole step runs sequentially on the caller's
    // cluster -- no threads, no transfers, same GEMMs as training_step.
    api::ScopedRunControl control(reduce_cluster, ctx);
    cluster::RedmuleDriver drv(reduce_cluster);
    NetworkRunner runner(reduce_cluster, drv, opts_.runner);
    // The template also zeroes the dW regions a slice never touches; on the
    // reset cluster those regions already read zero and zero writes do not
    // materialize pages, so the full template is bit- and cycle-invisible.
    runner.stage_training_template(net, static_cast<uint32_t>(x.cols()));
    slots[0].result = runner.training_slice_staged(net, x, target);
    if (opts_.phase1_done_hook) opts_.phase1_done_hook(0);
    res.stats.shard_cycles.push_back(slots[0].result.stats.total_cycles);
    fold_gemms(slots[0].result.stats);
    res.dw = reduce_all(drv);
  } else {
    if (!engine_) engine_ = std::make_unique<api::PoolWorkers>(opts_.n_workers);

    // Phase 1: every slice is an independent task on the pooled-cluster
    // engine. Shard clusters use the reduce cluster's exact config, so they
    // share pool keys with it (and with service-run jobs of this workload).
    std::vector<MatrixF16> xs, ts;
    xs.reserve(n_slices);
    ts.reserve(n_slices);
    for (const ShardSlice& s : slices) {
      xs.push_back(col_slice(x, s.begin, s.count));
      ts.push_back(col_slice(target, s.begin, s.count));
    }
    const cluster::ClusterConfig cfg = reduce_cluster.config();
    // Snapshot/fork provisioning of the slice templates: slices of equal
    // batch share one staged-weights image, so weight staging runs once per
    // distinct slice width instead of once per slice. The key covers
    // everything stage_training_template writes: the network identity (dims
    // + a hash over every weight bit -- the caller's net is arbitrary, not
    // seed-derived) and the slice's real and padded batch, which size the
    // whole training layout.
    uint64_t weight_hash = 0xcbf29ce484222325ULL;
    std::string net_tag = "shard-slice/";
    for (size_t l = 0; l < net.n_layers(); ++l) {
      weight_hash = api::hash_fold(weight_hash, net.layer(l).weight);
      net_tag += std::to_string(net.layer(l).out_dim()) + "-";
    }
    net_tag += "w" + std::to_string(weight_hash);
    std::mutex m;
    std::condition_variable cv;
    uint32_t done = 0;
    for (uint32_t k = 0; k < n_slices; ++k) {
      engine_->post([&, k](api::ClusterPool& pool) {
        try {
          const uint32_t slice_batch = slices[k].count;
          const std::string tkey = net_tag + "/B" + std::to_string(slice_batch) +
                                   "p" + std::to_string(pad_even(slice_batch));
          const api::ClusterPool::Acquired acq = pool.acquire_template(
              cfg, tkey, [&](cluster::Cluster& cl) {
                cluster::RedmuleDriver d(cl);
                NetworkRunner r(cl, d, opts_.runner);
                r.stage_training_template(net, slice_batch);
              });
          api::ScopedRunControl control(*acq.cl, ctx);
          cluster::RedmuleDriver drv(*acq.cl);
          NetworkRunner runner(*acq.cl, drv, opts_.runner);
          slots[k].result = runner.training_slice_staged(net, xs[k], ts[k]);
          if (opts_.phase1_done_hook) opts_.phase1_done_hook(k);
        } catch (...) {
          slots[k].error = std::current_exception();
        }
        // Notify under the lock: the waiter owns cv and destroys it as soon
        // as it sees the last slice done, so the notify must finish first.
        std::lock_guard<std::mutex> l(m);
        ++done;
        cv.notify_one();
      });
    }
    // Wait for EVERY task (tasks reference caller-owned state, so no early
    // unwind), then surface the lowest-indexed failure -- a deterministic
    // pick, independent of which shard happened to fail first in time.
    {
      std::unique_lock<std::mutex> l(m);
      cv.wait(l, [&] { return done == n_slices; });
    }
    for (Slot& s : slots)
      if (s.error) std::rethrow_exception(s.error);

    for (const Slot& s : slots) {
      res.stats.shard_cycles.push_back(s.result.stats.total_cycles);
      fold_gemms(s.result.stats);
    }
    api::ScopedRunControl control(reduce_cluster, ctx);
    cluster::RedmuleDriver drv(reduce_cluster);
    res.dw = reduce_all(drv);
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
        res.out(r, slices[k].begin + c) = slots[k].result.out(r, c);
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
  const ShardCostModel& cost = opts_.cost;
  if (n_slices == 1) {
    res.stats.makespan_cycles =
        res.stats.shard_cycles[0] + res.stats.reduce_cycles[0];
  } else {
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
      const uint64_t arrive =
          cost.hop_latency_cycles +
          transfer_cycles(dispatch_bytes, cost.link_bytes_per_cycle) +
          res.stats.shard_cycles[k] + cost.hop_latency_cycles +
          transfer_cycles(capture_bytes, cost.link_bytes_per_cycle);
      const uint64_t start = std::max(arrive, reduce_free);
      reduce_free = start + res.stats.reduce_cycles[k];
    }
    res.stats.makespan_cycles = reduce_free;
  }
  return res;
}

}  // namespace redmule::shard
