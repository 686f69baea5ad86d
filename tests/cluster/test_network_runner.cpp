// The multi-layer network executor (cluster/network_runner.hpp) and its
// lowering contract (workloads/network.hpp): forward passes and whole
// training steps on one cluster must be bit-exact vs the double-precision
// golden reference AND vs the per-layer monolithic driver path, for odd
// batch sizes, tiled layers (TCDM smaller than the weights), and under the
// batch runner across thread counts with cluster reuse.
#include "cluster/network_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "core/golden.hpp"
#include "api/service.hpp"
#include "workloads/network.hpp"

namespace redmule::cluster {
namespace {

using fp16::Float16;
using workloads::NetworkGraph;
using workloads::random_matrix;

void expect_bit_exact(const core::MatrixF16& got, const core::MatrixF16& ref,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), ref.rows()) << what;
  ASSERT_EQ(got.cols(), ref.cols()) << what;
  for (size_t i = 0; i < got.rows(); ++i)
    for (size_t j = 0; j < got.cols(); ++j)
      ASSERT_EQ(got(i, j).bits(), ref(i, j).bits())
          << what << " mismatch at (" << i << "," << j << ")";
}

/// The per-layer monolithic driver path: every lowered (padded) GEMM runs
/// whole on a TCDM-resident cluster through RedmuleDriver::gemm -- the
/// pre-NetworkRunner way of executing a chain, and the second oracle the
/// tiled L2-resident executor must match bit-for-bit.
workloads::GemmFn monolithic_gemm(const core::Geometry& g) {
  return [g](const MatrixF16& x, const MatrixF16& w) {
    const workloads::GemmShape s{"", static_cast<uint32_t>(x.rows()),
                                 static_cast<uint32_t>(x.cols()),
                                 static_cast<uint32_t>(w.cols())};
    Cluster cl(api::resolve_cluster_config({}, api::GemmWorkload({s, g}).requirements()));
    RedmuleDriver drv(cl);
    return drv.gemm(x, w).z;
  };
}

/// Useful MACs of a list of training-step GEMMs (real, unpadded extents).
uint64_t plan_macs(const std::vector<workloads::AeGemm>& plan) {
  uint64_t macs = 0;
  for (const workloads::AeGemm& e : plan) macs += e.shape.macs();
  return macs;
}

/// A small odd-dimensioned MLP: 13 -> 10 -> 7 -> 13, ReLU on the hidden
/// layers.
NetworkGraph small_mlp(Xoshiro256& rng) {
  NetworkGraph net;
  net.add_linear(random_matrix(10, 13, rng));
  net.add_linear(random_matrix(7, 10, rng));
  net.add_linear(random_matrix(13, 7, rng));
  return net;
}

// --- Elementwise rules: FP16 vs double-precision golden mirror -------------

TEST(NetworkLowering, ReluRuleMirrorsDoubleExhaustively) {
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const Float16 v = Float16::from_bits(static_cast<uint16_t>(bits));
    ASSERT_EQ(workloads::relu_f16(v).bits(), workloads::relu_golden(v).bits())
        << "bits=0x" << std::hex << bits;
  }
}

// --- NetworkGraph construction ---------------------------------------------

TEST(NetworkGraph, RejectsNonChainingLayers) {
  Xoshiro256 rng(5);
  NetworkGraph net;
  net.add_linear(random_matrix(8, 16, rng));
  EXPECT_THROW(net.add_linear(random_matrix(4, 9, rng)), redmule::Error);
}

workloads::AutoencoderConfig small_autoencoder_config() {
  workloads::AutoencoderConfig cfg;
  cfg.input_dim = 24;
  cfg.hidden = {12, 6, 12};
  cfg.batch = 4;
  return cfg;
}

TEST(NetworkGraph, AutoencoderWeightsArePinned) {
  // The autoencoder's He initialisation (per layer, uniform in
  // +-sqrt(2 / d[l]), drawn in layer order) feeds every network hash and
  // trajectory record; any change to the scale or the draw order moves this.
  const workloads::AutoencoderConfig cfg = small_autoencoder_config();
  Xoshiro256 rng(42);
  const NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  ASSERT_EQ(net.n_layers(), cfg.n_layers());
  const auto d = cfg.dims();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t l = 0; l < net.n_layers(); ++l) {
    EXPECT_EQ(net.layer(l).weight.rows(), d[l + 1]);
    EXPECT_EQ(net.layer(l).weight.cols(), d[l]);
    h = api::hash_fold(h, net.layer(l).weight);
  }
  EXPECT_EQ(h, 0x87d889d10a2b6ed2ULL);

  // The positional ReLU rule's last half: no ReLU after the last layer, so
  // the output is the last pre-activation, negative values kept. (The ReLU
  // between layers is checked by AutoencoderForwardMatchesUnpaddedChain.)
  Xoshiro256 rng_x(7);
  const auto x = random_matrix(cfg.input_dim, cfg.batch, rng_x, -0.5, 0.5);
  const auto ref = workloads::reference_forward(net, x, core::Geometry{});
  ASSERT_EQ(ref.pre.size(), net.n_layers());
  expect_bit_exact(ref.out, ref.pre.back(), "output vs last pre-activation");
  bool last_has_negative = false;
  for (size_t i = 0; i < ref.out.rows(); ++i)
    for (size_t j = 0; j < ref.out.cols(); ++j)
      last_has_negative |= Float16::lt(ref.out(i, j), Float16{});
  EXPECT_TRUE(last_has_negative) << "no final ReLU: the output keeps its sign";
}

TEST(NetworkGraph, AutoencoderForwardMatchesUnpaddedChain) {
  // The golden network forward agrees numerically with a plain unpadded FMA
  // chain (golden_gemm + ReLU between layers): same values, where the only
  // admissible difference is the sign of zero from padding FMAs.
  const workloads::AutoencoderConfig cfg = small_autoencoder_config();
  Xoshiro256 rng(42);
  const NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  Xoshiro256 rng_x(7);
  const auto x = random_matrix(cfg.input_dim, cfg.batch, rng_x, -0.5, 0.5);

  std::vector<MatrixF16> chain_pre;
  MatrixF16 act = x;
  for (size_t l = 0; l < net.n_layers(); ++l) {
    chain_pre.push_back(core::golden_gemm(net.layer(l).weight, act));
    act = chain_pre.back();
    if (l + 1 < net.n_layers())
      for (size_t i = 0; i < act.rows(); ++i)
        for (size_t j = 0; j < act.cols(); ++j)
          if (Float16::lt(act(i, j), Float16{})) act(i, j) = Float16{};
  }

  const auto ref = workloads::reference_forward(net, x, core::Geometry{});
  ASSERT_EQ(chain_pre.size(), ref.pre.size());
  for (size_t l = 0; l < ref.pre.size(); ++l)
    for (size_t i = 0; i < ref.pre[l].rows(); ++i)
      for (size_t j = 0; j < ref.pre[l].cols(); ++j) {
        const double a = chain_pre[l](i, j).to_double();
        const double b = ref.pre[l](i, j).to_double();
        ASSERT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
            << "layer " << l << " (" << i << "," << j << ")";
      }
}

// --- Forward: runner vs golden reference vs monolithic driver path ---------

TEST(NetworkRunner, ForwardMatchesReferenceAndMonolithic) {
  Xoshiro256 rng(11);
  NetworkGraph net = small_mlp(rng);
  const auto x = random_matrix(13, 5, rng);  // odd batch

  Cluster cl;
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  const auto hw = runner.forward(net, x);

  const auto ref = workloads::reference_forward(net, x, cl.config().geometry);
  expect_bit_exact(hw.out, ref.out, "forward vs golden");

  const auto mono = workloads::reference_forward(net, x, cl.config().geometry,
                                                 monolithic_gemm(cl.config().geometry));
  expect_bit_exact(hw.out, mono.out, "forward vs monolithic driver path");

  // One forward GEMM per layer, with useful MACs summing to the graph's.
  // The cycle counts are pinned: the forward lowering (padded extents, plan,
  // L2 layout) must not move a single cycle.
  const uint64_t kGemmCycles[] = {266, 161, 195};
  const uint64_t kTotalCycles = 622;
  ASSERT_EQ(hw.stats.gemms.size(), net.n_layers());
  for (size_t l = 0; l < hw.stats.gemms.size(); ++l) {
    const NetworkGemmStats& gs = hw.stats.gemms[l];
    EXPECT_EQ(gs.layer, l);
    EXPECT_EQ(gs.phase, workloads::AeGemm::Phase::kForward);
    EXPECT_EQ(gs.shape.name, "L" + std::to_string(l) + ".fw");
    EXPECT_EQ(gs.tiled.total_cycles, kGemmCycles[l]) << "layer " << l;
  }
  EXPECT_EQ(hw.stats.total_cycles, kTotalCycles);
  EXPECT_EQ(hw.stats.macs, (10u * 13 + 7 * 10 + 13 * 7) * 5);
}

TEST(NetworkRunner, ForwardOddBatchSizes) {
  for (const uint32_t batch : {1u, 3u, 8u}) {
    Xoshiro256 rng(100 + batch);
    NetworkGraph net = small_mlp(rng);
    const auto x = random_matrix(13, batch, rng);
    Cluster cl;
    RedmuleDriver drv(cl);
    NetworkRunner runner(cl, drv);
    const auto hw = runner.forward(net, x);
    const auto ref = workloads::reference_forward(net, x, cl.config().geometry);
    expect_bit_exact(hw.out, ref.out, "B=" + std::to_string(batch));
  }
}

// --- Training step ----------------------------------------------------------

workloads::AutoencoderConfig reduced_ae(uint32_t batch) {
  workloads::AutoencoderConfig cfg;
  cfg.input_dim = 32;
  cfg.hidden = {16, 8, 16};
  cfg.batch = batch;
  return cfg;
}

/// Large enough that the 96x64 weight layers (12 KiB) cannot fit an 8 KiB
/// TCDM whole -- forces genuine tiling in the tiled-layer tests.
workloads::AutoencoderConfig tiled_ae(uint32_t batch) {
  workloads::AutoencoderConfig cfg;
  cfg.input_dim = 96;
  cfg.hidden = {64, 32, 64};
  cfg.batch = batch;
  return cfg;
}

void run_training_comparison(const workloads::AutoencoderConfig& cfg, double lr,
                             ClusterConfig ccfg, bool check_monolithic,
                             bool expect_tiling) {
  const uint32_t batch = cfg.batch;
  Xoshiro256 rng_hw(1234), rng_ref(1234), rng_x(77);
  NetworkGraph net_hw = NetworkGraph::autoencoder(cfg, rng_hw);
  NetworkGraph net_ref = NetworkGraph::autoencoder(cfg, rng_ref);
  const auto x = random_matrix(cfg.input_dim, batch, rng_x, -0.5, 0.5);

  Cluster cl(ccfg);
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  const auto hw = runner.training_step(net_hw, x, x, lr);

  const auto ref = workloads::reference_training_step(net_ref, x, x, lr,
                                                      cl.config().geometry);
  expect_bit_exact(hw.out, ref.out, "training out");
  ASSERT_EQ(hw.dw.size(), ref.dw.size());
  for (size_t l = 0; l < hw.dw.size(); ++l)
    expect_bit_exact(hw.dw[l], ref.dw[l], "dW layer " + std::to_string(l));
  EXPECT_EQ(hw.mse, ref.mse);
  // The SGD update left both models with identical weights.
  for (size_t l = 0; l < net_hw.n_layers(); ++l)
    expect_bit_exact(net_hw.layer(l).weight, net_ref.layer(l).weight,
                     "updated weights layer " + std::to_string(l));

  if (check_monolithic) {
    Xoshiro256 rng_m(1234);
    NetworkGraph net_mono = NetworkGraph::autoencoder(cfg, rng_m);
    const auto mono = workloads::reference_training_step(
        net_mono, x, x, lr, cl.config().geometry,
        monolithic_gemm(cl.config().geometry));
    expect_bit_exact(hw.out, mono.out, "training out vs monolithic");
    for (size_t l = 0; l < hw.dw.size(); ++l)
      expect_bit_exact(hw.dw[l], mono.dw[l],
                       "dW vs monolithic, layer " + std::to_string(l));
  }
  if (expect_tiling) {
    uint32_t max_steps = 0;
    for (const auto& gs : hw.stats.gemms)
      max_steps = std::max(max_steps, gs.tiled.steps);
    EXPECT_GT(max_steps, 1u) << "TCDM was meant to force genuine tiling";
  }
  // One GEMM per layer forward + per-layer dW + dX for all but layer 0.
  EXPECT_EQ(hw.stats.gemms.size(), 3 * cfg.n_layers() - 1);
  EXPECT_EQ(hw.stats.macs,
            plan_macs(workloads::training_step_gemms(cfg.dims(), batch)));
  EXPECT_GT(hw.stats.total_cycles, 0u);
}

TEST(NetworkRunner, TrainingStepMatchesReferenceAndMonolithic) {
  run_training_comparison(reduced_ae(4), /*lr=*/0.02, ClusterConfig{},
                          /*check_monolithic=*/true, /*expect_tiling=*/false);
}

TEST(NetworkRunner, TrainingStepOddBatches) {
  for (const uint32_t batch : {1u, 3u, 5u})
    run_training_comparison(reduced_ae(batch), 0.02, ClusterConfig{},
                            /*check_monolithic=*/false, /*expect_tiling=*/false);
}

TEST(NetworkRunner, TrainingStepTiledLayersStayExact) {
  // 8 KiB TCDM against 96x64 (12 KiB) weight layers: every large layer must
  // stream through the TCDM in tiles, and stay bit-exact doing it.
  ClusterConfig ccfg;
  ccfg.tcdm.words_per_bank = 128;
  run_training_comparison(tiled_ae(8), /*lr=*/0.02, ccfg,
                          /*check_monolithic=*/true, /*expect_tiling=*/true);
}

TEST(NetworkRunner, SliceIsTheStepWithoutItsDwGemms) {
  // The sharded step's slice must issue exactly the step's forward and
  // dX GEMMs -- same order, extents, cycles and traffic -- and capture
  // operands that reproduce the step's dW bits on a reduce cluster.
  for (const uint32_t batch : {3u, 4u}) {
    const workloads::AutoencoderConfig cfg = reduced_ae(batch);
    Xoshiro256 rng(61), rng_x(62);
    NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
    const auto x = random_matrix(cfg.input_dim, batch, rng_x, -0.5, 0.5);
    const std::string at = "B=" + std::to_string(batch) + " ";

    Cluster cl_step, cl_slice;
    RedmuleDriver drv_step(cl_step), drv_slice(cl_slice);
    NetworkRunner step_runner(cl_step, drv_step);
    NetworkRunner slice_runner(cl_slice, drv_slice);
    step_runner.stage_training_template(net, batch);
    slice_runner.stage_training_template(net, batch);
    const auto step = step_runner.training_step_staged(net, x, x, /*lr=*/0.0);
    const auto slice = slice_runner.training_slice_staged(net, x, x);
    expect_bit_exact(slice.out, step.out, at + "slice vs step out");

    std::vector<NetworkGemmStats> expected;
    for (const NetworkGemmStats& gs : step.stats.gemms)
      if (gs.phase != workloads::AeGemm::Phase::kGradWeight)
        expected.push_back(gs);
    ASSERT_EQ(slice.stats.gemms.size(), expected.size()) << at;
    for (size_t i = 0; i < expected.size(); ++i) {
      const NetworkGemmStats& got = slice.stats.gemms[i];
      const NetworkGemmStats& want = expected[i];
      const std::string what = at + want.shape.name;
      EXPECT_EQ(got.layer, want.layer) << what;
      EXPECT_EQ(got.phase, want.phase) << what;
      EXPECT_EQ(got.shape.name, want.shape.name) << what;
      EXPECT_EQ(got.shape.m, want.shape.m) << what;
      EXPECT_EQ(got.shape.n, want.shape.n) << what;
      EXPECT_EQ(got.shape.k, want.shape.k) << what;
      EXPECT_EQ(got.tiled.total_cycles, want.tiled.total_cycles) << what;
      EXPECT_EQ(got.tiled.dma_bytes_in, want.tiled.dma_bytes_in) << what;
      EXPECT_EQ(got.tiled.dma_bytes_out, want.tiled.dma_bytes_out) << what;
      EXPECT_EQ(got.tiled.fma_ops, want.tiled.fma_ops) << what;
    }

    Cluster cl_reduce;
    RedmuleDriver drv_reduce(cl_reduce);
    DwAccumulator acc(cl_reduce, drv_reduce, net, slice.grads.padded_batch);
    acc.accumulate(slice.grads, /*first=*/true);
    const std::vector<core::MatrixF16> dw = acc.gradients();
    ASSERT_EQ(dw.size(), step.dw.size()) << at;
    for (size_t l = 0; l < dw.size(); ++l)
      expect_bit_exact(dw[l], step.dw[l], at + "dW layer " + std::to_string(l));
  }
}

/// The (layer, phase, shape) entries of the GEMMs a run executed.
std::vector<workloads::AeGemm> executed(const NetworkStats& stats) {
  return {stats.gemms.begin(), stats.gemms.end()};
}

TEST(NetworkRunner, DimsStepIsTheGraphStepWithoutTheUpdate) {
  // The dims step reads the weights from the staged template only. At
  // lr = 0 the graph overload must return exactly its result; at lr != 0 the
  // graph overload still applies the SGD update to the host weights.
  const workloads::AutoencoderConfig cfg = reduced_ae(3);
  Xoshiro256 rng(71), rng_x(72);
  const NetworkGraph net0 = NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(cfg.input_dim, cfg.batch, rng_x, -0.5, 0.5);

  const auto staged_runner = [&](Cluster& cl, RedmuleDriver& drv) {
    NetworkRunner runner(cl, drv);
    runner.stage_training_template(net0, cfg.batch);
    return runner;
  };
  Cluster cl_dims, cl_graph, cl_sgd;
  RedmuleDriver drv_dims(cl_dims), drv_graph(cl_graph), drv_sgd(cl_sgd);
  const auto dims = staged_runner(cl_dims, drv_dims)
                        .training_step_staged(cfg.dims(), x, x);
  NetworkGraph net_graph = net0;
  const auto graph = staged_runner(cl_graph, drv_graph)
                         .training_step_staged(net_graph, x, x, /*lr=*/0.0);

  expect_bit_exact(dims.out, graph.out, "out");
  ASSERT_EQ(dims.dw.size(), graph.dw.size());
  for (size_t l = 0; l < dims.dw.size(); ++l)
    expect_bit_exact(dims.dw[l], graph.dw[l], "dW layer " + std::to_string(l));
  EXPECT_EQ(dims.mse, graph.mse);
  EXPECT_EQ(dims.stats.total_cycles, graph.stats.total_cycles);
  EXPECT_EQ(dims.stats.macs, graph.stats.macs);
  EXPECT_EQ(executed(dims.stats), executed(graph.stats));
  for (size_t l = 0; l < net0.n_layers(); ++l)
    expect_bit_exact(net_graph.layer(l).weight, net0.layer(l).weight,
                     "lr = 0 weights layer " + std::to_string(l));

  const double lr = 0.05;
  NetworkGraph net_sgd = net0;
  const auto sgd =
      staged_runner(cl_sgd, drv_sgd).training_step_staged(net_sgd, x, x, lr);
  bool moved = false;
  for (size_t l = 0; l < net0.n_layers(); ++l) {
    expect_bit_exact(sgd.dw[l], dims.dw[l], "lr != 0 dW layer " + std::to_string(l));
    MatrixF16 want = net0.layer(l).weight;
    workloads::apply_sgd_update(want, dims.dw[l], lr, cfg.batch);
    expect_bit_exact(net_sgd.layer(l).weight, want,
                     "updated weights layer " + std::to_string(l));
    moved = moved || api::hash_matrix(want) != api::hash_matrix(net0.layer(l).weight);
  }
  EXPECT_TRUE(moved) << "the update must change some weight";
}

TEST(NetworkRunner, EveryPathRunsTheTrainingStepPlan) {
  // training_step_gemms is the one definition of a step: the full step,
  // forward(), a sharded slice and the dW reduction each execute exactly
  // its entries (or the documented subset), in its order, with its shapes.
  using Phase = workloads::AeGemm::Phase;
  struct Case {
    uint32_t input_dim;
    std::vector<uint32_t> hidden;
    std::vector<uint32_t> batches;
  };
  const workloads::AutoencoderConfig full;  // 640-128^4-8-128^4-640
  const Case cases[] = {
      {full.input_dim, full.hidden, {1, 2}},
      {32, {16, 8, 16}, {3, 4}},
      {96, {64, 32, 64}, {5, 2}},
      {96, {64, 32}, {1, 4}},
      {7, {5, 3}, {3, 16}},
  };
  for (const Case& c : cases)
    for (const uint32_t batch : c.batches) {
      api::NetworkTrainingSpec spec;
      spec.net.input_dim = c.input_dim;
      spec.net.hidden = c.hidden;
      spec.net.batch = batch;
      const ClusterConfig ccfg = api::resolve_cluster_config(
          {}, api::NetworkTrainingWorkload(spec).requirements());
      api::NetworkInputs in = api::draw_network_inputs(spec);
      const std::vector<uint32_t> dims = spec.net.dims();
      const std::string at = std::to_string(dims.size() - 1) + " layers from " +
                             std::to_string(c.input_dim) +
                             ", B=" + std::to_string(batch);

      const std::vector<workloads::AeGemm> plan =
          workloads::training_step_gemms(dims, batch);
      std::vector<workloads::AeGemm> fw, no_dw, dw;
      for (const workloads::AeGemm& e : plan) {
        if (e.phase == Phase::kForward) fw.push_back(e);
        (e.phase == Phase::kGradWeight ? dw : no_dw).push_back(e);
      }
      ASSERT_EQ(std::vector<workloads::AeGemm>(plan.begin(),
                                               plan.begin() + fw.size()),
                fw)
          << at << ": the forward pass is the plan's prefix";

      Cluster cl_step(ccfg), cl_fwd(ccfg), cl_slice(ccfg), cl_reduce(ccfg);
      RedmuleDriver drv_step(cl_step), drv_fwd(cl_fwd), drv_slice(cl_slice),
          drv_reduce(cl_reduce);
      const auto step =
          NetworkRunner(cl_step, drv_step).training_step(in.net, in.x, in.x, 0.0);
      EXPECT_EQ(executed(step.stats), plan) << at;
      EXPECT_EQ(step.stats.macs, plan_macs(plan)) << at;

      const auto fwd = NetworkRunner(cl_fwd, drv_fwd).forward(in.net, in.x);
      EXPECT_EQ(executed(fwd.stats), fw) << at;

      NetworkRunner slice_runner(cl_slice, drv_slice);
      slice_runner.stage_training_template(in.net, batch);
      const auto slice = slice_runner.training_slice_staged(in.net, in.x, in.x);
      EXPECT_EQ(executed(slice.stats), no_dw) << at;

      DwAccumulator acc(cl_reduce, drv_reduce, in.net, slice.grads.padded_batch);
      EXPECT_EQ(executed(acc.accumulate(slice.grads, /*first=*/true)), dw) << at;
    }
}

TEST(NetworkRunner, MinTcdmBytesIsPinned) {
  // The largest minimum tile set over the plan's GEMMs. Layer 0's dX is not
  // one of them (the step never runs it): in 2-3-1-2 at B = 1 that shape
  // (2 x 3 x 1, staged 2 x 4 x 2) would need 40 bytes, the plan needs 32.
  const core::Geometry g{};
  EXPECT_EQ(NetworkRunner::min_tcdm_bytes({2, 3, 1, 2}, 1, g), 32u);
  EXPECT_EQ(NetworkRunner::min_tcdm_bytes({96, 64, 32, 96}, 4, g), 896u);
}

TEST(NetworkRunner, MseFallsOverSgdSteps) {
  const workloads::AutoencoderConfig cfg = reduced_ae(8);
  Xoshiro256 rng(31), rng_x(32);
  NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(cfg.input_dim, 8, rng_x, -0.5, 0.5);
  Cluster cl;
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  const double first = runner.training_step(net, x, x, 0.05).mse;
  double last = first;
  for (int step = 0; step < 9; ++step)
    last = runner.training_step(net, x, x, 0.05).mse;
  EXPECT_LT(last, first) << "training on one batch must reduce its MSE";
}

TEST(NetworkRunner, SizingHelpersCoverTheRun) {
  const workloads::AutoencoderConfig cfg = reduced_ae(4);
  const std::vector<uint32_t> dims = cfg.dims();
  const uint64_t l2_need = NetworkRunner::training_l2_bytes(dims, cfg.batch);
  EXPECT_GT(l2_need, 0u);

  // A cluster sized exactly by the helpers runs the step; an L2 one layer
  // short of the layout must be rejected before anything executes.
  ClusterConfig ok;
  ok.l2.size_bytes = static_cast<uint32_t>(l2_need);
  while (static_cast<uint64_t>(ok.tcdm.size_bytes()) <
         NetworkRunner::min_tcdm_bytes(dims, cfg.batch, ok.geometry) + 4096)
    ok.tcdm.words_per_bank *= 2;
  Xoshiro256 rng(55), rng_x(56);
  NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(cfg.input_dim, cfg.batch, rng_x);
  {
    Cluster cl(ok);
    RedmuleDriver drv(cl);
    NetworkRunner runner(cl, drv);
    EXPECT_NO_THROW(runner.training_step(net, x, x, 0.0));
  }
  ClusterConfig tight = ok;
  tight.l2.size_bytes = static_cast<uint32_t>(l2_need / 2);
  {
    Cluster cl(tight);
    RedmuleDriver drv(cl);
    NetworkRunner runner(cl, drv);
    EXPECT_THROW(runner.training_step(net, x, x, 0.0), redmule::Error);
  }
}

// --- Service integration -----------------------------------------------------

TEST(NetworkRunner, BatchedTrainingJobsDeterministicAcrossThreadsAndReuse) {
  std::vector<std::string> specs;
  for (size_t i = 0; i < 4; ++i) {
    const workloads::AutoencoderConfig net = reduced_ae(i % 2 == 0 ? 4 : 3);
    specs.push_back("network:in=" + std::to_string(net.input_dim) +
                    ",hidden=16-8-16,batch=" + std::to_string(net.batch) +
                    ",seed=" + std::to_string(split_seed(91, i)));
  }

  // Serial reference: each training job on its own fresh cluster.
  std::vector<api::WorkloadResult> ref;
  for (const std::string& spec : specs) {
    auto w = api::WorkloadRegistry::global().create(spec);
    ref.push_back(api::Service::run_one(*w));
    ASSERT_TRUE(ref.back().ok()) << ref.back().error.to_string();
  }

  api::ServiceConfig cfg;
  cfg.n_threads = 2;
  api::Service threaded(cfg);
  api::SubmitOptions keep;
  keep.keep_output = true;
  for (int rep = 0; rep < 2; ++rep) {  // second rep runs on reused clusters
    std::vector<api::JobHandle> handles;
    for (const std::string& spec : specs)
      handles.push_back(
          threaded.submit(api::WorkloadRegistry::global().create(spec), keep));
    for (size_t i = 0; i < handles.size(); ++i) {
      api::WorkloadResult got = handles[i].get();
      ASSERT_TRUE(got.ok()) << got.error.to_string();
      EXPECT_EQ(got.z_hash, ref[i].z_hash) << "rep " << rep << " job " << i;
      EXPECT_EQ(got.stats.cycles, ref[i].stats.cycles);
      EXPECT_EQ(got.stats.fma_ops, ref[i].stats.fma_ops);
      ASSERT_EQ(got.z.rows(), ref[i].z.rows());
      EXPECT_EQ(
          std::memcmp(got.z.data(), ref[i].z.data(), got.z.size_bytes()), 0);
    }
  }
  EXPECT_GT(threaded.stats().cluster_reuses, 0u);
}

}  // namespace
}  // namespace redmule::cluster
