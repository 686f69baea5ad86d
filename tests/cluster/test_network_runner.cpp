// The multi-layer network executor (cluster/network_runner.hpp) and its
// lowering contract (workloads/network.hpp): forward passes and whole
// training steps on one cluster must be bit-exact vs the double-precision
// golden reference AND vs the per-layer monolithic driver path, for odd
// batch sizes, tiled layers (TCDM smaller than the weights), conv layers,
// and under the batch runner across thread counts with cluster reuse.
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
    ClusterConfig cfg;
    cfg.geometry = g;
    while (cfg.tcdm.n_banks < cfg.geometry.mem_ports()) cfg.tcdm.n_banks *= 2;
    const uint64_t need =
        2ull * (x.rows() * x.cols() + x.cols() * w.cols() + x.rows() * w.cols()) +
        4096;
    while (static_cast<uint64_t>(cfg.tcdm.size_bytes()) < need)
      cfg.tcdm.words_per_bank *= 2;
    Cluster cl(cfg);
    RedmuleDriver drv(cl);
    return drv.gemm(x, w).z;
  };
}

/// A small odd-dimensioned MLP with bias and ReLU on the hidden layers.
NetworkGraph small_mlp(Xoshiro256& rng) {
  NetworkGraph net;
  std::vector<Float16> b1, b2;
  for (int i = 0; i < 10; ++i) b1.push_back(Float16::from_double(0.03 * i - 0.1));
  for (int i = 0; i < 13; ++i) b2.push_back(Float16::from_double(0.05 - 0.01 * i));
  net.add_linear(random_matrix(10, 13, rng), /*relu=*/true, b1);
  net.add_linear(random_matrix(7, 10, rng), /*relu=*/true);
  net.add_linear(random_matrix(13, 7, rng), /*relu=*/false, b2);
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

TEST(NetworkLowering, BiasAddRuleMirrorsDouble) {
  Xoshiro256 rng(3);
  // Random pairs plus the special values the add rule must agree on.
  std::vector<uint16_t> specials = {0x0000, 0x8000, 0x0001, 0x8001, 0x03FF,
                                    0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00};
  for (int i = 0; i < 200000; ++i) {
    const Float16 a = Float16::from_bits(static_cast<uint16_t>(rng.next_u64()));
    const Float16 b = Float16::from_bits(static_cast<uint16_t>(rng.next_u64()));
    const Float16 f = workloads::bias_add_f16(a, b);
    const Float16 d = workloads::bias_add_golden(a, b);
    // NaN payloads may legitimately differ; any-NaN == any-NaN is enough.
    if (f.is_nan() && d.is_nan()) continue;
    ASSERT_EQ(f.bits(), d.bits()) << "a=0x" << std::hex << a.bits() << " b=0x"
                                  << b.bits();
  }
  for (uint16_t sa : specials)
    for (uint16_t sb : specials) {
      const Float16 f = workloads::bias_add_f16(Float16::from_bits(sa),
                                                Float16::from_bits(sb));
      const Float16 d = workloads::bias_add_golden(Float16::from_bits(sa),
                                                   Float16::from_bits(sb));
      if (f.is_nan() && d.is_nan()) continue;
      ASSERT_EQ(f.bits(), d.bits());
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
    EXPECT_EQ(net.layer(l).relu, l + 1 < net.n_layers());
    h = api::hash_fold(h, net.layer(l).weight);
  }
  EXPECT_EQ(h, 0x87d889d10a2b6ed2ULL);
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

  EXPECT_EQ(hw.stats.gemms.size(), net.n_layers());
  EXPECT_GT(hw.stats.total_cycles, 0u);
  EXPECT_EQ(hw.stats.macs, net.forward_macs(5));
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

TEST(NetworkRunner, ConvLayersLowerThroughIm2col) {
  // conv(2ch 8x8, 3x3, pad 1, 4ch out) -> ReLU -> conv(4ch -> 2ch) -> linear.
  Xoshiro256 rng(21);
  workloads::Conv2dParams c1;
  c1.in_channels = 2, c1.out_channels = 4;
  c1.in_h = c1.in_w = 8, c1.kernel = 3, c1.pad = 1;
  workloads::Conv2dParams c2;
  c2.in_channels = 4, c2.out_channels = 2;
  c2.in_h = c2.in_w = 8, c2.kernel = 3, c2.pad = 1;
  std::vector<Float16> cb;
  for (uint32_t i = 0; i < c1.out_channels; ++i)
    cb.push_back(Float16::from_double(0.01 * i));

  NetworkGraph net;
  net.add_conv(c1, random_matrix(4, 2 * 9, rng), /*relu=*/true, cb);
  net.add_conv(c2, random_matrix(2, 4 * 9, rng), /*relu=*/true);
  net.add_linear(random_matrix(10, 2 * 64, rng));
  const auto x = random_matrix(net.input_dim(), 1, rng);

  Cluster cl;
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  const auto hw = runner.forward(net, x);
  const auto ref = workloads::reference_forward(net, x, cl.config().geometry);
  expect_bit_exact(hw.out, ref.out, "conv chain");
  const auto mono = workloads::reference_forward(net, x, cl.config().geometry,
                                                 monolithic_gemm(cl.config().geometry));
  expect_bit_exact(hw.out, mono.out, "conv chain vs monolithic");

  // One forward GEMM per layer, conv and linear alike, with useful MACs
  // summing to the graph's. The cycle counts are pinned: the conv lowering
  // (im2col staging, padded extents, plan) must not move a single cycle.
  const uint64_t kGemmCycles[] = {757, 1263, 1486};
  const uint64_t kTotalCycles = 3506;
  ASSERT_EQ(hw.stats.gemms.size(), 3u);
  uint64_t macs = 0;
  for (size_t l = 0; l < hw.stats.gemms.size(); ++l) {
    const NetworkGemmStats& gs = hw.stats.gemms[l];
    EXPECT_EQ(gs.layer, l);
    EXPECT_EQ(gs.phase, workloads::AeGemm::Phase::kForward);
    EXPECT_EQ(gs.shape.name, "L" + std::to_string(l) + ".fw");
    EXPECT_EQ(gs.tiled.total_cycles, kGemmCycles[l]) << "layer " << l;
    macs += gs.tiled.macs;
  }
  EXPECT_EQ(macs, net.forward_macs(1));
  EXPECT_EQ(hw.stats.total_cycles, kTotalCycles);
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
  EXPECT_EQ(hw.stats.macs, net_ref.training_macs(batch));
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

TEST(NetworkRunner, TrainingRejectsBiasLayers) {
  // Bias gradients are not modeled; training a biased net would silently
  // freeze the biases, so both executors must reject the configuration.
  Xoshiro256 rng(17);
  NetworkGraph net;
  net.add_linear(random_matrix(8, 8, rng), /*relu=*/true,
                 std::vector<Float16>(8, Float16::from_double(0.1)));
  net.add_linear(random_matrix(8, 8, rng));
  const auto x = random_matrix(8, 2, rng);
  Cluster cl;
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  EXPECT_THROW(runner.training_step(net, x, x, 0.01), redmule::Error);
  EXPECT_THROW(workloads::reference_training_step(net, x, x, 0.01,
                                                  cl.config().geometry),
               redmule::Error);
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
  cfg.keep_outputs = true;
  api::Service threaded(cfg);
  for (int rep = 0; rep < 2; ++rep) {  // second rep runs on reused clusters
    std::vector<api::JobHandle> handles;
    for (const std::string& spec : specs)
      handles.push_back(
          threaded.submit(api::WorkloadRegistry::global().create(spec)));
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
