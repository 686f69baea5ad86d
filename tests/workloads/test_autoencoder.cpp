#include "workloads/autoencoder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "workloads/network.hpp"

namespace redmule::workloads {
namespace {

TEST(Autoencoder, DimChain) {
  AutoencoderConfig cfg;
  const auto d = cfg.dims();
  ASSERT_EQ(d.size(), 11u);
  EXPECT_EQ(d.front(), 640u);
  EXPECT_EQ(d.back(), 640u);
  EXPECT_EQ(d[5], 8u);  // bottleneck
}

TEST(Autoencoder, ForwardShapesMapKToBatch) {
  AutoencoderConfig cfg;
  cfg.batch = 4;
  const auto gemms = autoencoder_forward_gemms(cfg);
  ASSERT_EQ(gemms.size(), 10u);
  for (const auto& g : gemms) {
    EXPECT_EQ(g.shape.k, 4u);  // K = B: the paper's utilization bottleneck
    EXPECT_EQ(g.phase, AeGemm::Phase::kForward);
  }
  EXPECT_EQ(gemms[0].shape.m, 128u);
  EXPECT_EQ(gemms[0].shape.n, 640u);
}

TEST(Autoencoder, TrainingShapesIncludeBothGradients) {
  AutoencoderConfig cfg;
  cfg.batch = 2;
  const auto gemms = autoencoder_training_gemms(cfg);
  // 10 forward + 10 dW + 9 dX (no dX for layer 0).
  ASSERT_EQ(gemms.size(), 29u);
  unsigned dw = 0, dx = 0;
  for (const auto& g : gemms) {
    if (g.phase == AeGemm::Phase::kGradWeight) {
      ++dw;
      EXPECT_EQ(g.shape.n, 2u);  // N = B for dW
    }
    if (g.phase == AeGemm::Phase::kGradInput) {
      ++dx;
      EXPECT_EQ(g.shape.k, 2u);  // K = B for dX
    }
  }
  EXPECT_EQ(dw, 10u);
  EXPECT_EQ(dx, 9u);
}

TEST(Autoencoder, GradWeightHasLargeK) {
  // The paper's "significant advantages in backward": dW has K = in_dim.
  AutoencoderConfig cfg;
  const auto gemms = autoencoder_training_gemms(cfg);
  bool found_large = false;
  for (const auto& g : gemms)
    if (g.phase == AeGemm::Phase::kGradWeight && g.shape.k >= 128) found_large = true;
  EXPECT_TRUE(found_large);
}

TEST(Autoencoder, FootprintMatchesPaperBallpark) {
  // Paper Fig. 4d: the B=16 configuration has a ~184 kB working footprint.
  AutoencoderConfig cfg;
  cfg.batch = 16;
  const size_t act = autoencoder_activation_bytes(cfg);
  EXPECT_GT(act, 50u * 1024);
  EXPECT_LT(act, 200u * 1024);
  // Weights: ~264k FP16 parameters.
  const size_t wb = autoencoder_weight_bytes(cfg);
  EXPECT_EQ(wb, 2u * (640 * 128 + 128 * 128 * 3 + 128 * 8 + 8 * 128 +
                      128 * 128 * 3 + 128 * 640));
}

TEST(Autoencoder, ForwardIsFinite) {
  AutoencoderConfig cfg;
  cfg.batch = 2;
  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(cfg.input_dim, cfg.batch, rng, -0.5, 0.5);
  const auto ref = reference_forward(net, x, core::Geometry{});
  ASSERT_EQ(ref.pre.size(), cfg.n_layers());
  for (const auto& o : ref.pre)
    for (size_t r = 0; r < o.rows(); ++r)
      for (size_t c = 0; c < o.cols(); ++c)
        EXPECT_TRUE(o(r, c).is_finite());
  EXPECT_EQ(ref.out.rows(), 640u);
  EXPECT_EQ(ref.out.cols(), 2u);
}

TEST(Autoencoder, ForwardMatchesDoubleReferenceLoosely) {
  // FP16 forward vs double-precision forward: relative error bounded by the
  // FP16 accumulation depth.
  AutoencoderConfig cfg;
  cfg.input_dim = 64;
  cfg.hidden = {32, 8, 32};
  cfg.batch = 1;
  Xoshiro256 rng(2);
  const NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(64, 1, rng, -0.5, 0.5);

  // Double reference.
  std::vector<Matrix<double>> w64;
  for (size_t l = 0; l < cfg.n_layers(); ++l) {
    const auto& w = net.layer(l).weight;
    Matrix<double> wd(w.rows(), w.cols());
    for (size_t r = 0; r < w.rows(); ++r)
      for (size_t c = 0; c < w.cols(); ++c) wd(r, c) = w(r, c).to_double();
    w64.push_back(std::move(wd));
  }
  std::vector<double> cur(64);
  for (size_t i = 0; i < 64; ++i) cur[i] = x(i, 0).to_double();
  for (size_t l = 0; l < w64.size(); ++l) {
    std::vector<double> next(w64[l].rows(), 0.0);
    for (size_t r = 0; r < w64[l].rows(); ++r)
      for (size_t c = 0; c < w64[l].cols(); ++c) next[r] += w64[l](r, c) * cur[c];
    if (l + 1 < w64.size())
      for (auto& v : next) v = std::max(v, 0.0);
    cur = std::move(next);
  }

  const auto ref = reference_forward(net, x, core::Geometry{});
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(ref.out(i, 0).to_double(), cur[i],
                std::max(0.05, std::abs(cur[i]) * 0.05));
  }
}

TEST(Autoencoder, TrainingReducesReconstructionError) {
  // A small AE overfits one structured (low-rank) batch: the adaptive-edge
  // scenario the paper motivates. MSE must collapse over SGD steps.
  AutoencoderConfig cfg;
  cfg.input_dim = 32;
  cfg.hidden = {16, 8, 16};
  cfg.batch = 4;
  Xoshiro256 rng(3);
  NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  MatrixF16 x(32, 4);
  for (int i = 0; i < 32; ++i)
    for (int b = 0; b < 4; ++b)
      x(i, b) = fp16::Float16::from_double(0.5 * std::sin(0.2 * i + b));
  const auto step = [&] {
    return reference_training_step(net, x, x, 0.1, core::Geometry{}).mse;
  };
  const double first = step();
  double last = first;
  for (int i = 0; i < 200; ++i) last = step();
  EXPECT_LT(last, first * 0.1);
}

}  // namespace
}  // namespace redmule::workloads
