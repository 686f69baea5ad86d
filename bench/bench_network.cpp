/// End-to-end multi-layer network executor benchmark
/// (cluster/network_runner.hpp): whole TinyMLPerf-autoencoder *training
/// steps* (forward + dX + dW chains) on one cluster, with inter-layer
/// activations resident in L2 and every lowered GEMM streamed through the
/// tiled DMA pipeline, swept over the batch size.
///
/// This is the paper's Fig. 4c/4d scenario end to end: at B = 1 the forward
/// and dX matmuls have K = 1 and cannot fill the H*(P+1) pipeline slots, so
/// MAC/cycle is low; growing the batch fills the array and the end-to-end
/// MAC/cycle must rise -- the bench asserts that trend (`trend_ok`).
///
/// Every sweep point is verified BIT-EXACT against the per-layer monolithic
/// driver path (each padded GEMM run whole on a TCDM-resident cluster via
/// RedmuleDriver::gemm, elementwise steps on the host): output activations,
/// every per-layer dW gradient, and the mse must match exactly, or the bench
/// exits nonzero (`exactness_ok`).
///
/// Reported per batch size: end-to-end cycles, MAC/cycle, per-phase cycle
/// split (forward / dX / dW), DMA traffic, and per-layer-GEMM cycles in the
/// JSON (the layer breakdown). Those records are exact; the one timed pair
/// per batch size is the host time of a training step (`host_step_ms`,
/// median and minimum over repeated steps on the same cluster).
///
/// Usage: bench_network [--smoke] [--out <path>]
///   --smoke   reduced autoencoder (CI rot check, not a measurement)
///   --out     JSON output path (default: BENCH_network.json in the CWD;
///             run from the repo root to refresh the committed file)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/network_runner.hpp"
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

/// The per-layer monolithic driver path (the second executor every sweep
/// point is checked against): one whole-GEMM offload per lowered matmul on
/// a cluster whose TCDM holds all three operands, at the same geometry as
/// the executor under test.
workloads::GemmFn monolithic_gemm(const core::Geometry& g) {
  return [g](const core::MatrixF16& x, const core::MatrixF16& w) {
    cluster::ClusterConfig cfg;
    cfg.geometry = g;
    while (cfg.tcdm.n_banks < cfg.geometry.mem_ports()) cfg.tcdm.n_banks *= 2;
    const uint64_t need =
        2ull * (x.rows() * x.cols() + x.cols() * w.cols() + x.rows() * w.cols()) +
        4096;
    while (static_cast<uint64_t>(cfg.tcdm.size_bytes()) < need)
      cfg.tcdm.words_per_bank *= 2;
    cluster::Cluster cl(cfg);
    cluster::RedmuleDriver drv(cl);
    return drv.gemm(x, w).z;
  };
}

bool bit_equal(const core::MatrixF16& a, const core::MatrixF16& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      if (a(i, j).bits() != b(i, j).bits()) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_network.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  print_header("End-to-end autoencoder training steps on the tiled pipeline",
               "Fig. 4c/4d: B = 1 starves the H*(P+1) pipeline slots; batching "
               "whole training steps restores MAC/cycle");

  const std::vector<uint32_t> batches =
      smoke ? std::vector<uint32_t>{1, 4} : std::vector<uint32_t>{1, 2, 4, 8, 16};
  constexpr double kFreqMhz = 476.0;  // paper's peak-efficiency operating point
  constexpr double kLr = 0.01;
  const int timed_steps = smoke ? 1 : 7;

  JsonBenchWriter json("network_training");
  json.add("smoke", smoke ? 1 : 0, "bool");

  TablePrinter table({"B", "Layers", "GEMMs", "Cycles", "us@476MHz", "FW cyc",
                      "dX cyc", "dW cyc", "MAC/cyc", "DMA B/cyc", "host ms"});
  bool all_exact = true;
  double first_mpc = 0.0, last_mpc = 0.0;

  for (const uint32_t batch : batches) {
    const workloads::AutoencoderConfig cfg = net_config(smoke, batch);
    const std::vector<uint32_t> dims = cfg.dims();

    // One cluster per point: default 128 kB TCDM (layers stream through it
    // in tiles), L2 grown to the resident training layout (weights both
    // orientations, per-layer activations, gradients).
    cluster::ClusterConfig ccfg;
    const uint64_t l2_need =
        cluster::NetworkRunner::training_l2_bytes(dims, batch);
    uint64_t l2_size = ccfg.l2.size_bytes;
    while (l2_size < l2_need) l2_size *= 2;
    ccfg.l2.size_bytes = static_cast<uint32_t>(l2_size);

    Xoshiro256 rng_hw(2022), rng_ref(2022), rng_x(77);
    workloads::NetworkGraph net_hw = workloads::NetworkGraph::autoencoder(cfg, rng_hw);
    workloads::NetworkGraph net_ref =
        workloads::NetworkGraph::autoencoder(cfg, rng_ref);
    const auto x = workloads::random_matrix(cfg.input_dim, batch, rng_x, -0.5, 0.5);

    cluster::Cluster cl(ccfg);
    cluster::RedmuleDriver drv(cl);
    cluster::NetworkRunner runner(cl, drv);
    const auto hw = runner.training_step(net_hw, x, x, kLr);

    // --- Bit-exactness vs the per-layer monolithic reference ---------------
    const auto mono = workloads::reference_training_step(
        net_ref, x, x, kLr, ccfg.geometry, monolithic_gemm(ccfg.geometry));
    bool exact = bit_equal(hw.out, mono.out) && hw.mse == mono.mse &&
                 hw.dw.size() == mono.dw.size();
    for (size_t l = 0; exact && l < hw.dw.size(); ++l)
      exact = bit_equal(hw.dw[l], mono.dw[l]);
    for (size_t l = 0; exact && l < net_hw.n_layers(); ++l)
      exact = bit_equal(net_hw.layer(l).weight, net_ref.layer(l).weight);
    if (!exact) {
      std::fprintf(stderr,
                   "FATAL: B=%u training step is not bit-exact vs the "
                   "per-layer monolithic reference\n",
                   batch);
      all_exact = false;
    }

    // --- Aggregate + per-layer records --------------------------------------
    using Phase = workloads::AeGemm::Phase;
    const uint64_t fw = hw.stats.phase_cycles(Phase::kForward);
    const uint64_t dx = hw.stats.phase_cycles(Phase::kGradInput);
    const uint64_t dwc = hw.stats.phase_cycles(Phase::kGradWeight);
    uint64_t dma_bytes = 0;
    for (const auto& gs : hw.stats.gemms)
      dma_bytes += gs.tiled.dma_bytes_in + gs.tiled.dma_bytes_out;
    const double mpc = hw.stats.macs_per_cycle();
    if (batch == batches.front()) first_mpc = mpc;
    if (batch == batches.back()) last_mpc = mpc;

    const std::string p = "B" + std::to_string(batch);
    json.add(p + ".total_cycles", static_cast<double>(hw.stats.total_cycles),
             "cycle");
    json.add(p + ".macs", static_cast<double>(hw.stats.macs), "MAC");
    json.add(p + ".macs_per_cycle", mpc, "MAC/cycle");
    json.add(p + ".forward_cycles", static_cast<double>(fw), "cycle");
    json.add(p + ".gradinput_cycles", static_cast<double>(dx), "cycle");
    json.add(p + ".gradweight_cycles", static_cast<double>(dwc), "cycle");
    json.add(p + ".dma_bytes", static_cast<double>(dma_bytes), "B");
    json.add(p + ".l2_bytes", static_cast<double>(l2_need), "B");
    json.add(p + ".mse", hw.mse, "1");
    for (const auto& gs : hw.stats.gemms)
      json.add(p + "." + gs.shape.name + ".cycles",
               static_cast<double>(gs.tiled.total_cycles), "cycle");

    // --- Host time per step (timed) -----------------------------------------
    std::vector<double> step_ms;
    for (int r = 0; r < timed_steps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      runner.training_step(net_hw, x, x, kLr);
      step_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    std::sort(step_ms.begin(), step_ms.end());
    json.add(p + ".host_step_ms_median", step_ms[step_ms.size() / 2], "ms");
    json.add(p + ".host_step_ms_min", step_ms.front(), "ms");

    table.add_row(
        {std::to_string(batch), std::to_string(net_hw.n_layers()),
         TablePrinter::fmt_int(hw.stats.gemms.size()),
         TablePrinter::fmt_int(hw.stats.total_cycles),
         TablePrinter::fmt(hw.stats.total_cycles / kFreqMhz, 1),
         TablePrinter::fmt_int(fw), TablePrinter::fmt_int(dx),
         TablePrinter::fmt_int(dwc), TablePrinter::fmt(mpc, 2),
         TablePrinter::fmt(hw.stats.total_cycles
                               ? static_cast<double>(dma_bytes) /
                                     static_cast<double>(hw.stats.total_cycles)
                               : 0.0,
                           2),
         TablePrinter::fmt(step_ms[step_ms.size() / 2], 1)});
  }

  const bool trend_ok = last_mpc > first_mpc;
  if (!trend_ok)
    std::fprintf(stderr,
                 "FATAL: MAC/cycle did not rise with the batch size "
                 "(B=%u: %.3f vs B=%u: %.3f) -- the Fig. 4c/4d trend broke\n",
                 batches.front(), first_mpc, batches.back(), last_mpc);
  json.add("exactness_ok", all_exact ? 1 : 0, "bool");
  json.add("trend_ok", trend_ok ? 1 : 0, "bool");
  table.print(stdout,
              smoke ? "smoke run (not a measurement)"
                    : "one full training step per row; cycles include every "
                      "DMA beat of the layer tile streams");

  if (!all_exact || !trend_ok) {
    std::fprintf(stderr, "FATAL: network executor acceptance criteria violated\n");
    return 1;
  }
  std::printf("\nall batch sizes bit-exact vs the per-layer monolithic "
              "reference; MAC/cycle rises with B as in Fig. 4c/4d\n");
  return json.write(out_path) ? 0 : 1;
}
