// Loopback soak: results through the serving front-end are BIT-IDENTICAL to
// direct api::Service execution, across connection interleavings.
//
// One server, several concurrent clients, several rounds (env-tunable with
// REDMULE_SOAK_ROUNDS). Every outcome -- z_hash and the full cycle/MAC
// breakdown -- is compared against a Service::run_one oracle computed once,
// in-process. Three interleavings exercise genuinely different orderings on
// the wire and in the service queue:
//
//   1. burst:    every client submits its whole set, then collects in order;
//   2. reverse:  submit all, collect newest-first (tests out-of-order
//                parking in the client and tag multiplexing in the server);
//   3. priority: submissions carry distinct priorities and collection
//                order is scrambled; cancel noise for unknown tags rides
//                along (must be ignored, per protocol).
//
// The point of the soak: session multiplexing, completion callbacks, the
// ready-handle sweep, write queues and the poll loop may reorder DELIVERY
// arbitrarily -- but never change a single bit of any RESULT.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace redmule;
using namespace redmule::serve;

namespace {

const std::vector<std::string> kSpecs = {
    "gemm:m=16,n=16,k=16,seed=21",
    "gemm:m=24,n=24,k=24,acc=1,seed=22",
    "gemm:m=32,n=32,k=32,geom=2x4x3,seed=23",
    "tiled:m=48,n=48,k=48,seed=24",
    "network:in=32,hidden=16-8-16,batch=1,seed=25",
    "sharded_network:in=32,hidden=16-8-16,batch=4,shards=2,seed=26",
};

/// kSpecs.back() unsharded: the one-cluster step its bits must equal.
const char* const kShardedOracleSpec =
    "network:in=32,hidden=16-8-16,batch=4,seed=26";

struct Expected {
  uint64_t cycles, advance, stall, macs, fma, z_hash;
};

const std::vector<Expected>& oracle() {
  static const std::vector<Expected> table = [] {
    std::vector<Expected> out;
    for (const auto& spec : kSpecs) {
      auto w = api::WorkloadRegistry::global().create(spec);
      const api::WorkloadResult r =
          api::Service::run_one(*w, {}, /*keep_outputs=*/false);
      EXPECT_TRUE(r.ok()) << spec << ": " << r.error.to_string();
      out.push_back({r.stats.cycles, r.stats.advance_cycles,
                     r.stats.stall_cycles, r.stats.macs, r.stats.fma_ops,
                     r.z_hash});
    }
    const api::WorkloadResult net = api::Service::run_one(
        *api::WorkloadRegistry::global().create(kShardedOracleSpec), {},
        /*keep_outputs=*/false);
    EXPECT_EQ(net.z_hash, out.back().z_hash) << kSpecs.back();
    EXPECT_EQ(net.stats.macs, out.back().macs) << kSpecs.back();
    return out;
  }();
  return table;
}

void check(const Client::Outcome& out, size_t spec_idx, const char* mode) {
  const Expected& want = oracle()[spec_idx];
  ASSERT_TRUE(out.ok()) << mode << " " << kSpecs[spec_idx] << ": "
                        << out.message;
  EXPECT_EQ(out.result.z_hash, want.z_hash) << mode << " " << kSpecs[spec_idx];
  EXPECT_EQ(out.result.cycles, want.cycles) << mode << " " << kSpecs[spec_idx];
  EXPECT_EQ(out.result.advance_cycles, want.advance);
  EXPECT_EQ(out.result.stall_cycles, want.stall);
  EXPECT_EQ(out.result.macs, want.macs);
  EXPECT_EQ(out.result.fma_ops, want.fma);
}

int soak_rounds() {
  const char* env = std::getenv("REDMULE_SOAK_ROUNDS");
  if (env == nullptr) return 2;
  const int v = std::atoi(env);
  return v > 0 ? v : 2;
}

std::string fresh_address() {
  static int counter = 0;
  return "unix:/tmp/redmule-soak." + std::to_string(::getpid()) + "." +
         std::to_string(++counter) + ".sock";
}

// Interleaving 1: submit everything, collect in submission order.
void client_burst(const std::string& address) {
  Client c(ClientConfig{address, "burst", 60000});
  std::vector<uint64_t> tags;
  for (size_t i = 0; i < kSpecs.size(); ++i) tags.push_back(c.submit(kSpecs[i]));
  for (size_t i = 0; i < tags.size(); ++i) check(c.wait(tags[i]), i, "burst");
}

// Interleaving 2: submit everything, collect newest-first.
void client_reverse(const std::string& address) {
  Client c(ClientConfig{address, "reverse", 60000});
  std::vector<uint64_t> tags;
  for (size_t i = 0; i < kSpecs.size(); ++i) tags.push_back(c.submit(kSpecs[i]));
  for (size_t i = tags.size(); i-- > 0;) check(c.wait(tags[i]), i, "reverse");
}

// Interleaving 3: distinct priorities, scrambled collection, cancel noise.
void client_priority(const std::string& address, int salt) {
  Client c(ClientConfig{address, "priority", 60000});
  std::vector<uint64_t> tags;
  for (size_t i = 0; i < kSpecs.size(); ++i) {
    const int priority = static_cast<int>((i + static_cast<size_t>(salt)) %
                                          kSpecs.size()) - 2;
    tags.push_back(c.submit(kSpecs[i], priority));
  }
  c.cancel(9999999);  // unknown tag: protocol says ignore
  // Collect each tag exactly once, in a salt-scrambled order.
  std::vector<size_t> order;
  for (size_t i = 0; i < tags.size(); ++i) order.push_back(i);
  for (size_t i = 0; i < order.size(); ++i)
    std::swap(order[i],
              order[(i * 7 + static_cast<size_t>(salt)) % order.size()]);
  for (const size_t i : order) check(c.wait(tags[i]), i, "priority");
}

}  // namespace

TEST(ServeSoak, ResultsBitIdenticalToDirectExecutionAcrossInterleavings) {
  ServerConfig cfg;
  cfg.address = fresh_address();
  cfg.service.n_threads = 2;
  Server server(cfg);
  server.start();

  (void)oracle();  // fail fast (and outside the threads) if the oracle breaks

  const int rounds = soak_rounds();
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::thread> clients;
    clients.emplace_back(client_burst, server.address());
    clients.emplace_back(client_reverse, server.address());
    clients.emplace_back(client_priority, server.address(), round + 1);
    for (auto& t : clients) t.join();
    if (::testing::Test::HasFailure()) break;
  }

  // Everything terminal, nothing leaked, nobody disconnected abnormally.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.overload_disconnects, 0u);
  const api::ServiceStats svc = server.service().stats();
  EXPECT_EQ(svc.submitted, svc.completed);
  EXPECT_EQ(svc.failed, 0u);
  server.drain();
  EXPECT_FALSE(server.running());
}

TEST(ServeSoak, SingleClientRepeatedConnectionsAreIdentical) {
  // Connection churn: a fresh session per iteration, same oracle bits.
  ServerConfig cfg;
  cfg.address = fresh_address();
  cfg.service.n_threads = 2;
  Server server(cfg);
  server.start();
  const int rounds = soak_rounds();
  for (int round = 0; round < rounds; ++round)
    for (size_t i = 0; i < kSpecs.size(); ++i) {
      Client c(ClientConfig{server.address(), "churn", 60000});
      check(c.run(kSpecs[i]), i, "churn");
    }
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  // Every session was closed by the client side; no cancels should have fired.
  EXPECT_EQ(server.service().stats().cancelled, 0u);
}
