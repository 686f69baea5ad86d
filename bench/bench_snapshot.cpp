/// Snapshot/fork provisioning benchmark (state/snapshot.hpp + the COW L2):
/// how much host wall-clock a warm start saves over full re-staging when the
/// same training template is provisioned repeatedly, as the pooled service
/// does for a stream of identical jobs.
///
/// Per model point the bench measures, best-of-N on one cluster:
///
///  - cold restage: Cluster::reset() + NetworkRunner::stage_training_template
///    (pad + write every weight in both orientations, zero the gradient and
///    activation regions) -- the per-job cost without templates;
///  - warm fork: state::restore() of the snapshotted template image -- a COW
///    page-table copy, no byte copies for untouched pages.
///
/// GATES (exit nonzero on violation):
///  - every point's forked cluster reproduces the freshly-staged cluster's
///    training step bit for bit (out, every dW, mse), and re-snapshotting
///    the restored cluster gives an image == the restored one;
///  - warm fork beats full restaging on wall-clock at every point
///    (`warm_wins`), with the speedup reported per point.
///
/// Usage: bench_snapshot [--smoke] [--out <path>]
///   --smoke   reduced model + reps (CI rot check, not a measurement)
///   --out     JSON output path (default: BENCH_snapshot.json in the CWD;
///             run from the repo root to refresh the committed file)
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/network_runner.hpp"
#include "state/snapshot.hpp"
#include "workloads/network.hpp"

using namespace redmule;
using namespace redmule::bench;

namespace {

struct Point {
  std::string name;
  workloads::AutoencoderConfig cfg;
};

std::vector<Point> points(bool smoke) {
  std::vector<Point> pts;
  if (smoke) {
    workloads::AutoencoderConfig small;
    small.input_dim = 96;
    small.hidden = {64, 32, 64};
    small.batch = 4;
    pts.push_back({"ae96.B4", small});
    return pts;
  }
  // The paper's TinyMLPerf AD autoencoder at the batch sizes the service
  // sweep uses; weight staging grows with the model, the fork does not.
  for (const uint32_t batch : {1u, 8u, 16u}) {
    workloads::AutoencoderConfig full;  // 640-128^4-8-128^4-640
    full.batch = batch;
    pts.push_back({"ae640.B" + std::to_string(batch), full});
  }
  return pts;
}

bool bit_equal(const core::MatrixF16& a, const core::MatrixF16& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      if (a(i, j).bits() != b(i, j).bits()) return false;
  return true;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_snapshot.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  print_header(
      "Snapshot/fork cluster provisioning vs full template re-staging",
      "a warm start restores a COW page-table image instead of re-writing "
      "every staged weight, so provisioning cost stops scaling with the model");

  const unsigned reps = smoke ? 5 : 20;
  JsonBenchWriter json("snapshot_fork");
  json.add("smoke", smoke ? 1 : 0, "bool");

  TablePrinter table({"Model", "Staged KiB", "Stage us", "Fork us", "Speedup",
                      "Exact"});
  bool all_exact = true;
  bool warm_wins = true;

  for (const Point& p : points(smoke)) {
    const std::vector<uint32_t> dims = p.cfg.dims();
    cluster::ClusterConfig ccfg;
    const uint64_t l2_need =
        cluster::NetworkRunner::training_l2_bytes(dims, p.cfg.batch);
    uint64_t l2_size = ccfg.l2.size_bytes;
    while (l2_size < l2_need) l2_size *= 2;
    ccfg.l2.size_bytes = static_cast<uint32_t>(l2_size);

    Xoshiro256 rng(2022);
    workloads::NetworkGraph net =
        workloads::NetworkGraph::autoencoder(p.cfg, rng);
    Xoshiro256 rng_x(77);
    const auto x =
        workloads::random_matrix(p.cfg.input_dim, p.cfg.batch, rng_x, -0.5, 0.5);

    // --- Bit-identity gate: forked == freshly staged -----------------------
    cluster::Cluster fresh(ccfg);
    {
      cluster::RedmuleDriver drv(fresh);
      cluster::NetworkRunner runner(fresh, drv);
      runner.stage_training_template(net, p.cfg.batch);
    }
    const state::ClusterImage img = state::snapshot(fresh);
    cluster::NetworkRunner::TrainingResult ref;
    {
      cluster::RedmuleDriver drv(fresh);
      cluster::NetworkRunner runner(fresh, drv);
      workloads::NetworkGraph n = net;  // lr=0: keep the host weights shared
      ref = runner.training_step_staged(n, x, x, 0.0);
    }
    cluster::Cluster forked(ccfg);
    state::restore(forked, img);
    bool exact = state::snapshot(forked) == img;
    {
      cluster::RedmuleDriver drv(forked);
      cluster::NetworkRunner runner(forked, drv);
      workloads::NetworkGraph n = net;
      const auto got = runner.training_step_staged(n, x, x, 0.0);
      exact = exact && bit_equal(got.out, ref.out) && got.mse == ref.mse &&
              got.dw.size() == ref.dw.size();
      for (size_t l = 0; exact && l < got.dw.size(); ++l)
        exact = bit_equal(got.dw[l], ref.dw[l]);
    }
    if (!exact) {
      std::fprintf(stderr, "FATAL: %s fork is not bit-identical to staging\n",
                   p.name.c_str());
      all_exact = false;
    }

    // --- Wall-clock: reset+stage vs restore, best of `reps` ----------------
    cluster::Cluster cl(ccfg);
    double stage_us = 1e18, fork_us = 1e18;
    for (unsigned r = 0; r < reps; ++r) {
      cl.reset();
      const double t0 = now_us();
      {
        cluster::RedmuleDriver drv(cl);
        cluster::NetworkRunner runner(cl, drv);
        runner.stage_training_template(net, p.cfg.batch);
      }
      stage_us = std::min(stage_us, now_us() - t0);
    }
    for (unsigned r = 0; r < reps; ++r) {
      const double t0 = now_us();
      state::restore(cl, img);
      fork_us = std::min(fork_us, now_us() - t0);
    }
    const double speedup = fork_us > 0.0 ? stage_us / fork_us : 0.0;
    if (speedup <= 1.0) {
      std::fprintf(stderr, "FATAL: %s warm fork (%.1f us) did not beat full "
                           "restaging (%.1f us)\n",
                   p.name.c_str(), fork_us, stage_us);
      warm_wins = false;
    }
    const double staged_kib =
        static_cast<double>(img.l2.resident_bytes()) / 1024.0;

    json.add(p.name + ".staged_resident_bytes",
             static_cast<double>(img.l2.resident_bytes()), "B");
    json.add(p.name + ".cold_stage_us", stage_us, "us");
    json.add(p.name + ".warm_fork_us", fork_us, "us");
    json.add(p.name + ".fork_speedup", speedup, "x");
    json.add(p.name + ".exact", exact ? 1 : 0, "bool");
    table.add_row({p.name, TablePrinter::fmt(staged_kib, 0),
                   TablePrinter::fmt(stage_us, 1), TablePrinter::fmt(fork_us, 1),
                   TablePrinter::fmt(speedup, 1), exact ? "yes" : "NO"});
  }

  json.add("exactness_ok", all_exact ? 1 : 0, "bool");
  json.add("warm_wins", warm_wins ? 1 : 0, "bool");
  table.print(stdout,
              smoke ? "smoke run (not a measurement)"
                    : "best-of-" + std::to_string(reps) +
                          " host wall-clock; Staged KiB = resident COW pages "
                          "of the template image");

  if (!all_exact || !warm_wins) {
    std::fprintf(stderr, "FATAL: snapshot/fork acceptance criteria violated\n");
    return 1;
  }
  std::printf("\nforked clusters bit-identical to fresh staging at every "
              "point; warm fork beats full restaging everywhere\n");
  return json.write(out_path) ? 0 : 1;
}
