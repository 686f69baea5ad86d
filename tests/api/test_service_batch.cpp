// Determinism and pooling contracts of batched execution through
// api::Service -- the assertions that guarded sim::BatchRunner before its
// removal, ported onto the one remaining execution path: a mixed-geometry
// job set run serially, on 2 threads, and on 8 threads must yield
// bit-identical per-job cycle counts, Z-buffer contents, and JobStats;
// cluster reuse must be invisible; a failed job must not poison its
// worker's pooled clusters; pooled instances persist across submission
// waves.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "common/rng.hpp"

using namespace redmule;
using api::JobHandle;
using api::Service;
using api::ServiceConfig;
using api::SubmitOptions;
using api::WorkloadRegistry;
using api::WorkloadResult;

namespace {

// The mixed-geometry scenario set: assorted H/L/P, ragged shapes, and the
// Y-accumulation path, each job with its own split_seed stream.
std::vector<std::string> mixed_specs() {
  struct Shape {
    const char* geom;
    uint32_t m, n, k;
    bool acc;
  };
  const std::vector<Shape> shapes = {
      {"4x8x3", 32, 32, 32, false}, {"2x4x3", 16, 24, 16, false},
      {"8x8x3", 24, 32, 24, false}, {"4x4x3", 17, 33, 31, false},
      {"4x8x3", 8, 8, 8, true},     {"2x4x3", 3, 5, 7, false},
      {"4x8x3", 48, 16, 48, true},  {"8x8x3", 16, 16, 16, false},
      {"4x8x3", 1, 1, 1, false},    {"4x4x3", 40, 24, 20, true},
  };
  std::vector<std::string> specs;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    specs.push_back("gemm:m=" + std::to_string(s.m) +
                    ",n=" + std::to_string(s.n) + ",k=" + std::to_string(s.k) +
                    ",geom=" + s.geom + (s.acc ? ",acc=1" : "") +
                    ",seed=" + std::to_string(split_seed(7, i)));
  }
  return specs;
}

void expect_same_stats(const core::JobStats& a, const core::JobStats& b,
                       size_t i) {
  EXPECT_EQ(a.cycles, b.cycles) << "job " << i;
  EXPECT_EQ(a.advance_cycles, b.advance_cycles) << "job " << i;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << "job " << i;
  EXPECT_EQ(a.macs, b.macs) << "job " << i;
  EXPECT_EQ(a.fma_ops, b.fma_ops) << "job " << i;
}

// Bit-level Z comparison (IEEE operator== would conflate +0/-0).
void expect_same_z(const workloads::MatrixF16& a, const workloads::MatrixF16& b,
                   size_t i) {
  ASSERT_EQ(a.rows(), b.rows()) << "job " << i;
  ASSERT_EQ(a.cols(), b.cols()) << "job " << i;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << "job " << i;
}

/// Submits every spec (in order) and collects results in submission order.
std::vector<WorkloadResult> run_with(unsigned threads,
                                     const std::vector<std::string>& specs,
                                     cluster::ClusterConfig base = {}) {
  ServiceConfig cfg;
  cfg.n_threads = threads;
  cfg.base = base;
  Service service(cfg);
  SubmitOptions keep;
  keep.keep_output = true;
  std::vector<JobHandle> handles;
  handles.reserve(specs.size());
  for (const std::string& s : specs)
    handles.push_back(service.submit(WorkloadRegistry::global().create(s), keep));
  std::vector<WorkloadResult> results;
  results.reserve(handles.size());
  for (JobHandle& h : handles) results.push_back(h.get());
  return results;
}

WorkloadResult reference(const std::string& spec,
                         cluster::ClusterConfig base = {}) {
  auto w = WorkloadRegistry::global().create(spec);
  return Service::run_one(*w, base);
}

}  // namespace

TEST(ServiceBatch, SerialMatchesReferencePath) {
  const auto specs = mixed_specs();
  const auto serial = run_with(1, specs);
  ASSERT_EQ(serial.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error.to_string();
    const WorkloadResult ref = reference(specs[i]);
    expect_same_stats(serial[i].stats, ref.stats, i);
    expect_same_z(serial[i].z, ref.z, i);
    EXPECT_EQ(serial[i].z_hash, ref.z_hash) << "job " << i;
  }
}

TEST(ServiceBatch, ThreadCountIsInvisible) {
  const auto specs = mixed_specs();
  const auto serial = run_with(1, specs);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = run_with(threads, specs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i].ok())
          << "t=" << threads << ": " << parallel[i].error.to_string();
      expect_same_stats(parallel[i].stats, serial[i].stats, i);
      expect_same_z(parallel[i].z, serial[i].z, i);
      EXPECT_EQ(parallel[i].z_hash, serial[i].z_hash) << "job " << i;
    }
  }
}

TEST(ServiceBatch, ClusterReuseIsInvisible) {
  // The second wave runs on reset() pooled clusters; each job must equal its
  // run_one reference on a fresh, unpooled cluster.
  const auto specs = mixed_specs();
  std::vector<std::string> two_waves = specs;
  two_waves.insert(two_waves.end(), specs.begin(), specs.end());
  const auto results = run_with(2, two_waves);
  for (size_t i = 0; i < specs.size(); ++i) {
    const WorkloadResult& reused = results[specs.size() + i];
    ASSERT_TRUE(reused.ok()) << reused.error.to_string();
    const WorkloadResult rebuilt = reference(specs[i]);
    expect_same_stats(reused.stats, rebuilt.stats, i);
    expect_same_z(reused.z, rebuilt.z, i);
  }
}

TEST(ServiceBatch, PoolReusesClustersAcrossWaves) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);
  const auto specs = mixed_specs();
  auto submit_all = [&] {
    std::vector<JobHandle> handles;
    for (const std::string& s : specs)
      handles.push_back(service.submit(WorkloadRegistry::global().create(s)));
    for (JobHandle& h : handles) (void)h.get();
  };
  submit_all();
  const api::ServiceStats first = service.stats();
  EXPECT_GT(first.clusters_constructed, 0u);
  submit_all();
  // Second wave: every geometry/TCDM class already has a pooled instance.
  const api::ServiceStats second = service.stats();
  EXPECT_EQ(second.clusters_constructed, first.clusters_constructed);
  EXPECT_EQ(second.cluster_reuses - first.cluster_reuses, specs.size());
}

TEST(ServiceBatch, PoolMatchesClustersOnEveryConfigField) {
  // Two configs that differ only in L2 timing: an instance or template image
  // of one must never serve the other.
  cluster::ClusterConfig a, b;
  b.l2.access_latency += 1;
  api::ClusterPool pool;
  cluster::Cluster* first = pool.acquire(a).cl;
  const api::ClusterPool::Acquired other = pool.acquire(b);
  EXPECT_TRUE(other.constructed);
  EXPECT_NE(other.cl, first);
  EXPECT_TRUE(other.cl->config() == b);
  EXPECT_EQ(pool.acquire(a).cl, first);

  const auto stage = [](cluster::Cluster&) {};
  EXPECT_FALSE(pool.acquire_template(a, "t", stage).forked);
  EXPECT_FALSE(pool.acquire_template(b, "t", stage).forked);
  EXPECT_TRUE(pool.acquire_template(b, "t", stage).forked);
}

TEST(ServiceBatch, FailedJobDoesNotPoisonWorkerOrWave) {
  auto specs = mixed_specs();
  const std::string bad = "gemm:m=0,n=0,k=0";  // rejected by validate()
  specs.insert(specs.begin() + 2, bad);

  const auto results = run_with(1, specs);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].error.code, api::ErrorCode::kBadConfig);
  // The serial reference path reports failures the same way, never throws.
  const WorkloadResult bad_ref = reference(bad);
  EXPECT_FALSE(bad_ref.ok());
  EXPECT_EQ(bad_ref.error.code, api::ErrorCode::kBadConfig);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].ok()) << results[i].error.to_string();
    const WorkloadResult ref = reference(specs[i]);
    expect_same_stats(results[i].stats, ref.stats, i);
    expect_same_z(results[i].z, ref.z, i);
  }
}

TEST(ServiceBatch, SplitSeedIsPureAndSpreads) {
  EXPECT_EQ(split_seed(7, 3), split_seed(7, 3));
  EXPECT_NE(split_seed(7, 3), split_seed(7, 4));
  EXPECT_NE(split_seed(7, 3), split_seed(8, 3));
  // Adjacent streams must produce unrelated workloads, not shifted copies.
  Xoshiro256 a(split_seed(1, 0)), b(split_seed(1, 1));
  unsigned same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0u);
}

TEST(ServiceBatch, TiledJobsMatchMonolithicAndStayDeterministic) {
  // Tiled jobs stream L2-resident operands through a small TCDM: their Z
  // bits must equal the monolithic run of the same (shape, seed) job, and
  // the usual thread/reuse invariances must hold.
  struct Shape {
    uint32_t m, n, k;
    bool acc;
  };
  const std::vector<Shape> shapes = {
      {96, 96, 96, false},
      {64, 128, 96, false},
      {48, 64, 48, true},
      {33, 47, 29, false},
  };
  cluster::ClusterConfig small_base;
  small_base.tcdm.words_per_bank = 256;  // 16 KiB TCDM forces real tiling
  std::vector<std::string> tiled, mono;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    const std::string body = "m=" + std::to_string(s.m) +
                             ",n=" + std::to_string(s.n) +
                             ",k=" + std::to_string(s.k) +
                             (s.acc ? ",acc=1" : "") +
                             ",seed=" + std::to_string(split_seed(21, i));
    tiled.push_back("tiled:" + body);
    mono.push_back("gemm:" + body);
  }

  const auto ref = run_with(1, tiled, small_base);
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_TRUE(ref[i].ok()) << ref[i].error.to_string();
    // Same job, monolithic: default base grows the TCDM to fit everything.
    const WorkloadResult mr = reference(mono[i]);
    ASSERT_TRUE(mr.ok()) << mr.error.to_string();
    expect_same_z(ref[i].z, mr.z, i);
    EXPECT_EQ(ref[i].z_hash, mr.z_hash) << "job " << i;
    // The tiled pipeline pays DMA cycles on top of compute.
    EXPECT_GT(ref[i].stats.cycles, mr.stats.cycles) << "job " << i;
  }

  for (int rep = 0; rep < 2; ++rep) {  // second rep runs on reused clusters
    const auto got = run_with(2, tiled, small_base);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << got[i].error.to_string();
      expect_same_stats(got[i].stats, ref[i].stats, i);
      expect_same_z(got[i].z, ref[i].z, i);
    }
  }
}

TEST(ServiceBatch, TiledJobBeyondAddressableL2FailsCleanly) {
  // Operands past the 32-bit address space must fail the job, not wrap the
  // L2 sizing loop and hang the worker.
  const WorkloadResult r = reference("tiled:m=30000,n=30000,k=30000");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.message.empty());
  EXPECT_EQ(r.error.code, api::ErrorCode::kCapacity);
}

TEST(ServiceBatch, ResultsAreMoveOnly) {
  // keep_output results carry full Z matrices; the result pipeline must
  // move them end to end. Copying is a compile error by design.
  static_assert(!std::is_copy_constructible_v<WorkloadResult>);
  static_assert(!std::is_copy_assignable_v<WorkloadResult>);
  static_assert(std::is_nothrow_move_constructible_v<WorkloadResult>);
  static_assert(std::is_nothrow_move_assignable_v<WorkloadResult>);
  WorkloadResult a;
  a.z_hash = 77;
  a.z = workloads::MatrixF16(4, 4);
  WorkloadResult b = std::move(a);
  EXPECT_EQ(b.z_hash, 77u);
  EXPECT_EQ(b.z.rows(), 4u);
}

TEST(ServiceBatch, ZeroThreadsResolvesToHardwareConcurrency) {
  ServiceConfig cfg;
  cfg.n_threads = 0;
  Service service(cfg);
  EXPECT_GE(service.n_threads(), 1u);
  service.drain();  // empty queue drains immediately
}
