#include "shard/sharded_workload.hpp"

namespace redmule::shard {

std::string ShardedNetworkWorkload::name() const {
  return "sharded_" + api::NetworkTrainingWorkload(spec_.base).name() + "xS" +
         std::to_string(spec_.shards);
}

api::ClusterRequirements ShardedNetworkWorkload::requirements() const {
  return api::NetworkTrainingWorkload(spec_.base).requirements();
}

api::Error ShardedNetworkWorkload::validate() const {
  if (spec_.shards < 1)
    return {api::ErrorCode::kBadConfig, "shard count must be positive"};
  return api::NetworkTrainingWorkload(spec_.base).validate();
}

api::WorkloadResult ShardedNetworkWorkload::run(cluster::Cluster& cluster,
                                                api::RunContext& ctx) {
  // The inputs and the hash are the network kind's own definitions; every
  // slice and the reduction run on the given cluster.
  api::NetworkInputs in = api::draw_network_inputs(spec_.base);
  // lr 0: the hash reads out and dW, both taken before the SGD update, and
  // the updated graph is dropped, so the update would be dead work.
  ShardedTrainingResult r =
      run_sharded_step(cluster, in.net, in.x, in.x, 0.0, spec_.shards, ctx);

  api::WorkloadResult res;
  res.stats.cycles = r.stats.makespan_cycles;
  res.stats.macs = r.stats.macs;
  res.stats.advance_cycles = r.stats.advance_cycles;
  res.stats.stall_cycles = r.stats.stall_cycles;
  res.stats.fma_ops = r.stats.fma_ops;
  res.z_hash = api::hash_training_step(r.out, r.dw);
  if (ctx.keep_outputs) res.z = std::move(r.out);
  return res;
}

namespace {

/// Static self-registration: makes "sharded_network:..." spec strings work
/// everywhere the registry does (service, serve layer, benches) without any
/// of those layers naming this module.
const bool registered = [] {
  api::WorkloadRegistry::global().add(
      "sharded_network",
      [](const api::SpecArgs& args) -> std::unique_ptr<api::Workload> {
        ShardedNetworkSpec spec;
        spec.base = api::network_spec_from(args);
        spec.shards = args.u32("shards", 1);
        args.require_all_consumed("sharded_network");
        return std::make_unique<ShardedNetworkWorkload>(std::move(spec));
      });
  return true;
}();

}  // namespace

}  // namespace redmule::shard
