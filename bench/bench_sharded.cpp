/// Sharded multi-cluster training-step benchmark (shard/sharding.hpp): ONE
/// TinyMLPerf-autoencoder training step split data-parallel over the batch
/// across K modeled clusters, swept over K, and gated on **bit-exactness**
/// against the single-cluster oracle at every point.
///
/// Reported per K: the cost-model makespan (per-shard measured cycles +
/// modeled interconnect transfers + the measured fixed-order dW reduction,
/// see docs/ARCHITECTURE.md "Sharded multi-cluster execution"), samples/s at
/// the paper's 476 MHz operating point, speedup vs K=1, and the modeled
/// inter-cluster traffic.
///
/// Gates (any violation exits nonzero):
///  - exactness: every K produces the oracle's exact bits -- output, every
///    per-layer dW, every SGD-updated weight, and the MSE double;
///  - K=1 parity: the one-slice plan degenerates to the sequential path and
///    its makespan equals the single-cluster training_step cycle count;
///  - speedup (full mode only): the modeled makespan at the largest K beats
///    K=1 (sharding that does not pay for its traffic is a regression). The
///    smoke net is deliberately in the thin-slice regime where sharding
///    loses, so only exactness and parity gate there.
///
/// Usage: bench_sharded [--smoke] [--out <path>]
///   --smoke   reduced autoencoder, K in {1,2,4} (CI rot check, not a
///             measurement)
///   --out     JSON output path (default: BENCH_sharded.json in the CWD;
///             run from the repo root to refresh the committed file)
#include <cstring>
#include <string>
#include <vector>

#include "api/workload.hpp"
#include "bench_util.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "common/rng.hpp"
#include "shard/sharding.hpp"
#include "workloads/network.hpp"

using namespace redmule;
using namespace redmule::bench;

namespace {

workloads::AutoencoderConfig net_config(bool smoke, uint32_t batch) {
  workloads::AutoencoderConfig cfg;
  if (smoke) {
    cfg.input_dim = 96;
    cfg.hidden = {64, 32, 64};
  }  // else: the full 640-128^4-8-128^4-640 TinyMLPerf AD model
  cfg.batch = batch;
  return cfg;
}

bool bit_equal(const core::MatrixF16& a, const core::MatrixF16& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      if (a(i, j).bits() != b(i, j).bits()) return false;
  return true;
}

/// Net + inputs from one seed stream (the workload adapters' generation
/// order) on the service-resolved cluster config for this spec.
struct Setup {
  workloads::NetworkGraph net;
  core::MatrixF16 x;
  cluster::ClusterConfig cfg;
};

Setup make_setup(const workloads::AutoencoderConfig& ae, uint64_t seed) {
  Xoshiro256 rng(seed);
  Setup s{workloads::NetworkGraph::autoencoder(ae, rng), core::MatrixF16{},
          cluster::ClusterConfig{}};
  s.x = workloads::random_matrix(s.net.input_dim(), ae.batch, rng);
  api::NetworkTrainingSpec spec;
  spec.net = ae;
  spec.seed = seed;
  s.cfg = api::resolve_cluster_config(
      cluster::ClusterConfig{},
      api::NetworkTrainingWorkload(spec).requirements());
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sharded.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  print_header("Sharded multi-cluster training steps",
               "one training step data-parallel over the batch across K "
               "pooled clusters; every point gated bit-exact vs the "
               "single-cluster oracle");

  // Full mode shards a 256-column batch: K=8 still leaves every slice 32
  // columns wide, so the per-slice dW chains stay long enough to keep the
  // array busy. Thin slices (a few H-columns) are pipeline-fill-dominated
  // and sharding loses -- the smoke net is in that regime on purpose, which
  // is why the speedup gate applies to the measured run only.
  const uint32_t batch = smoke ? 16 : 256;
  const std::vector<uint32_t> shard_counts =
      smoke ? std::vector<uint32_t>{1, 2, 4} : std::vector<uint32_t>{1, 2, 4, 8};
  constexpr double kFreqMhz = 476.0;  // paper's peak-efficiency operating point
  constexpr double kLr = 0.01;
  constexpr uint64_t kSeed = 2022;

  const workloads::AutoencoderConfig cfg = net_config(smoke, batch);

  JsonBenchWriter json("sharded_training");
  json.add("smoke", smoke ? 1 : 0, "bool");
  json.add("batch", batch, "samples");

  // Single-cluster oracle: the plain training step, captured in full.
  Setup oracle = make_setup(cfg, kSeed);
  uint64_t oracle_cycles = 0;
  cluster::NetworkRunner::TrainingResult oracle_res = [&] {
    cluster::Cluster cl(oracle.cfg);
    cluster::RedmuleDriver drv(cl);
    cluster::NetworkRunner runner(cl, drv);
    auto r = runner.training_step(oracle.net, oracle.x, oracle.x, kLr);
    oracle_cycles = r.stats.total_cycles;
    return r;
  }();
  json.add("oracle.total_cycles", static_cast<double>(oracle_cycles), "cycle");

  TablePrinter table({"K", "Shards", "Makespan", "us@476MHz", "Samples/s",
                      "Speedup", "Link MB", "Reduce cyc"});
  bool all_exact = true;
  bool k1_parity_ok = true;
  double k1_samples = 0.0, last_samples = 0.0;

  for (const uint32_t k : shard_counts) {
    Setup s = make_setup(cfg, kSeed);
    cluster::Cluster cl(s.cfg);
    const shard::ShardedTrainingResult r =
        shard::run_sharded_step(cl, s.net, s.x, s.x, kLr, k);

    // --- Exactness gate vs the oracle --------------------------------------
    bool exact = bit_equal(oracle_res.out, r.out) &&
                 oracle_res.mse == r.mse &&
                 oracle_res.dw.size() == r.dw.size();
    for (size_t l = 0; exact && l < r.dw.size(); ++l)
      exact = bit_equal(oracle_res.dw[l], r.dw[l]);
    for (size_t l = 0; exact && l < s.net.n_layers(); ++l)
      exact = bit_equal(oracle.net.layer(l).weight, s.net.layer(l).weight);
    if (!exact) {
      std::fprintf(stderr,
                   "FATAL: K=%u sharded step is not bit-exact vs the "
                   "single-cluster oracle\n",
                   k);
      all_exact = false;
    }
    if (k == 1 && r.stats.makespan_cycles != oracle_cycles) {
      std::fprintf(stderr,
                   "FATAL: K=1 makespan (%llu) != single-cluster training "
                   "step (%llu) -- the degenerate plan must be the "
                   "sequential path\n",
                   static_cast<unsigned long long>(r.stats.makespan_cycles),
                   static_cast<unsigned long long>(oracle_cycles));
      k1_parity_ok = false;
    }

    // --- Records -------------------------------------------------------------
    const double us = r.stats.makespan_cycles / kFreqMhz;
    const double samples_per_s =
        us > 0 ? static_cast<double>(batch) * 1e6 / us : 0.0;
    if (k == shard_counts.front()) k1_samples = samples_per_s;
    if (k == shard_counts.back()) last_samples = samples_per_s;
    uint64_t reduce_cycles = 0;
    for (const uint64_t c : r.stats.reduce_cycles) reduce_cycles += c;

    const std::string p = "K" + std::to_string(k);
    json.add(p + ".shards_used", r.stats.shards, "clusters");
    json.add(p + ".makespan_cycles",
             static_cast<double>(r.stats.makespan_cycles), "cycle");
    json.add(p + ".samples_per_sec", samples_per_s, "sample/s");
    json.add(p + ".speedup_vs_k1",
             k1_samples > 0 ? samples_per_s / k1_samples : 0.0, "x");
    json.add(p + ".interconnect_bytes",
             static_cast<double>(r.stats.interconnect_bytes), "B");
    json.add(p + ".reduce_cycles", static_cast<double>(reduce_cycles), "cycle");
    json.add(p + ".macs", static_cast<double>(r.stats.macs), "MAC");

    table.add_row(
        {std::to_string(k), std::to_string(r.stats.shards),
         TablePrinter::fmt_int(r.stats.makespan_cycles),
         TablePrinter::fmt(us, 1), TablePrinter::fmt(samples_per_s, 0),
         TablePrinter::fmt(k1_samples > 0 ? samples_per_s / k1_samples : 0.0, 2),
         TablePrinter::fmt(
             static_cast<double>(r.stats.interconnect_bytes) / 1e6, 2),
         TablePrinter::fmt_int(reduce_cycles)});
  }

  const bool speedup_ok = smoke || last_samples > k1_samples;
  if (!speedup_ok)
    std::fprintf(stderr,
                 "FATAL: samples/s did not rise from K=1 (%.0f) to K=%u "
                 "(%.0f) -- sharding no longer pays for its traffic\n",
                 k1_samples, shard_counts.back(), last_samples);
  json.add("exactness_ok", all_exact ? 1 : 0, "bool");
  json.add("k1_parity_ok", k1_parity_ok ? 1 : 0, "bool");
  json.add("speedup_ok", speedup_ok ? 1 : 0, "bool");
  table.print(stdout,
              smoke ? "smoke run (not a measurement)"
                    : "makespan = modeled multi-cluster schedule (measured "
                      "shard + reduce cycles, modeled transfers)");

  if (!all_exact || !k1_parity_ok || !speedup_ok) {
    std::fprintf(stderr, "FATAL: sharded execution acceptance criteria violated\n");
    return 1;
  }
  std::printf("\nall shard counts bit-exact vs the single-cluster oracle; "
              "K=1 degenerates to the sequential path\n");
  return json.write(out_path) ? 0 : 1;
}
