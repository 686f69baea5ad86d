// The network family's shared definition (api/workload.hpp): its input draw,
// and absolute pins for its results -- z_hash, simulated cycles and MACs of
// fixed specs, recorded from the executor as it stood before the warm path
// stopped drawing weights. Cold runs, warm template forks and the sharded
// step are each checked against these numbers, not only against each other,
// so a change that moves warm and cold together still fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"

namespace redmule::api {
namespace {

TEST(NetworkInputDraw, EqualsTheGraphDrawsInput) {
  // draw_network_input skips the weights instead of drawing them; its batch
  // must be the one draw_network_inputs returns beside the graph, whether it
  // continues the weight stream (input_seed 0) or has its own.
  struct Net {
    uint32_t input_dim;
    std::vector<uint32_t> hidden;
  };
  const Net nets[] = {{128, {64, 64, 64, 64, 8, 64, 64, 64, 64}},
                      {24, {12, 6, 12}},
                      {7, {5, 3}},
                      {13, {10}}};
  for (const Net& n : nets)
    for (const uint32_t batch : {1u, 3u, 4u})
      for (const uint64_t input_seed : {0ull, 1ull, 0x9e3779b97f4a7c15ull}) {
        NetworkTrainingSpec spec;
        spec.net.input_dim = n.input_dim;
        spec.net.hidden = n.hidden;
        spec.net.batch = batch;
        spec.seed = 11 + batch;
        spec.input_seed = input_seed;
        const workloads::MatrixF16 got = draw_network_input(spec);
        const workloads::MatrixF16 want = draw_network_inputs(spec).x;
        const std::string at = "in=" + std::to_string(n.input_dim) +
                               " B=" + std::to_string(batch) +
                               " input_seed=" + std::to_string(input_seed);
        ASSERT_EQ(got.rows(), n.input_dim) << at;
        ASSERT_EQ(got.cols(), batch) << at;
        for (size_t r = 0; r < got.rows(); ++r)
          for (size_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c).bits(), want(r, c).bits()) << at;
      }
}

struct Pin {
  const char* spec;
  uint64_t cycles;
  uint64_t macs;
  uint64_t z_hash;
};

// The step perfbench's train_ae_warm times (the 1/5-width paper autoencoder)
// at two inputs; a small network whose input continues the weight stream
// (input_seed 0, odd batch); and a sharded step of that network.
constexpr Pin kTrainAeInput1{
    "network:in=128,hidden=64-64-64-64-8-64-64-64-64,batch=4,warm=1,seed=7,"
    "input_seed=1",
    79696, 471040, 462616228093470582ull};
constexpr Pin kTrainAeInput2{
    "network:in=128,hidden=64-64-64-64-8-64-64-64-64,batch=4,warm=1,seed=7,"
    "input_seed=2",
    79696, 471040, 5160887302420797016ull};
constexpr Pin kSmallStream{"network:in=24,hidden=12-6-12,batch=3,warm=1,seed=5",
                           2465, 5616, 5767075427827713031ull};
constexpr Pin kSharded{
    "sharded_network:in=24,hidden=12-6-12,batch=7,shards=3,seed=5", 3821, 13104,
    16922798107835063808ull};

void expect_pinned(const WorkloadResult& r, const Pin& pin,
                   const std::string& path) {
  ASSERT_TRUE(r.ok()) << path << " " << pin.spec << ": "
                      << r.error.to_string();
  EXPECT_EQ(r.stats.cycles, pin.cycles) << path << " " << pin.spec;
  EXPECT_EQ(r.stats.macs, pin.macs) << path << " " << pin.spec;
  EXPECT_EQ(r.z_hash, pin.z_hash) << path << " " << pin.spec;
}

TEST(NetworkPins, ColdRunsMatchTheirPins) {
  for (const Pin& pin : {kTrainAeInput1, kTrainAeInput2, kSmallStream, kSharded}) {
    const auto w = WorkloadRegistry::global().create(pin.spec);
    expect_pinned(Service::run_one(*w), pin, "cold");
  }
}

TEST(NetworkPins, WarmForksMatchTheirPins) {
  // One worker: each spec's first job stages and publishes its template, the
  // second forks it. Both train_ae specs share one template (same weight seed).
  Service svc(ServiceConfig{});
  std::vector<Pin> order;
  std::vector<JobHandle> jobs;
  for (int rep = 0; rep < 2; ++rep)
    for (const Pin& pin : {kTrainAeInput1, kTrainAeInput2, kSmallStream}) {
      order.push_back(pin);
      jobs.push_back(svc.submit(WorkloadRegistry::global().create(pin.spec)));
    }
  for (size_t i = 0; i < jobs.size(); ++i)
    expect_pinned(jobs[i].get(), order[i], "warm");
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.template_misses, 2u);
  EXPECT_EQ(st.template_forks, 4u);
}

}  // namespace
}  // namespace redmule::api
