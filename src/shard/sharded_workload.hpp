/// \file sharded_workload.hpp
/// \brief api::Workload adapter over shard::run_sharded_step.
///
/// The sharded counterpart of api::NetworkTrainingWorkload. It parses the
/// shared keys with api::network_spec_from (plus a shard count; input_seed
/// and warm are not part of this kind's grammar), draws its inputs with
/// api::draw_network_inputs and folds its z_hash with
/// api::hash_training_step. A sharded run's z_hash therefore equals the
/// plain network workload's z_hash for the same base spec, which is the
/// bit-exactness oracle every test and bench gates on.
///
/// The kind self-registers into api::WorkloadRegistry::global() from this
/// TU's static initializer (the library is an OBJECT library so the linker
/// keeps it), making it reachable from every registry front-end -- the serve
/// layer included -- with no changes there:
///
///   sharded_network: batch= [,shards=] [,in=] [,hidden=a-b-c]
///                    [,geom=HxLxP] [,seed=] [,lr=]
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/workload.hpp"
#include "shard/sharding.hpp"

namespace redmule::shard {

struct ShardedNetworkSpec {
  api::NetworkTrainingSpec base{};
  uint32_t shards = 1;
};

class ShardedNetworkWorkload : public api::Workload {
 public:
  explicit ShardedNetworkWorkload(ShardedNetworkSpec spec)
      : spec_(std::move(spec)) {}

  std::string name() const override;
  /// Identical to NetworkTrainingWorkload's for the base spec: the full
  /// training layout upper-bounds both the per-shard slice layout and the
  /// reduction layout, and the equal resolved config means sharded and
  /// plain network jobs of one base spec share pooled clusters.
  api::ClusterRequirements requirements() const override;
  api::Error validate() const override;
  api::WorkloadResult run(cluster::Cluster& cluster,
                          api::RunContext& ctx) override;

  const ShardedNetworkSpec& spec() const { return spec_; }

 private:
  ShardedNetworkSpec spec_;
};

}  // namespace redmule::shard

namespace redmule::workloads {
/// The sharded kind lives in the shard module; workloads is its natural
/// discovery point next to the other network workload types.
using shard::ShardedNetworkWorkload;
}  // namespace redmule::workloads
