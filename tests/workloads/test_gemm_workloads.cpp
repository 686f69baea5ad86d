#include "workloads/gemm.hpp"

#include <gtest/gtest.h>

namespace redmule::workloads {
namespace {

TEST(GemmWorkloads, RandomMatrixDeterministic) {
  Xoshiro256 a(1), b(1);
  const auto ma = random_matrix(4, 4, a);
  const auto mb = random_matrix(4, 4, b);
  EXPECT_TRUE(ma == mb);
}

TEST(GemmWorkloads, RandomMatrixRange) {
  Xoshiro256 rng(2);
  const auto m = random_matrix(16, 16, rng, -2.0, 2.0);
  for (size_t r = 0; r < 16; ++r)
    for (size_t c = 0; c < 16; ++c) {
      const double v = m(r, c).to_double();
      EXPECT_GE(v, -2.0);
      EXPECT_LT(v, 2.0);
    }
}

TEST(GemmWorkloads, ConstantMatrix) {
  const auto m = constant_matrix(3, 3, 0.5);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c).to_double(), 0.5);
}

TEST(GemmWorkloads, ShapeMacsAndBytes) {
  const GemmShape s{"3x5x7", 3, 5, 7};
  EXPECT_EQ(s.macs(), 3ull * 5 * 7);
  EXPECT_EQ(s.bytes(), 2ull * (3 * 5 + 5 * 7 + 3 * 7));  // X, W and Z
}

TEST(GemmWorkloads, RaggedSweepCoversLeftoverClasses) {
  const auto shapes = ragged_sweep();
  bool m_ragged = false, n_ragged = false, k_ragged = false;
  for (const auto& s : shapes) {
    if (s.m % 8 != 0) m_ragged = true;
    if (s.n % 4 != 0) n_ragged = true;
    if (s.k % 16 != 0) k_ragged = true;
  }
  EXPECT_TRUE(m_ragged);
  EXPECT_TRUE(n_ragged);
  EXPECT_TRUE(k_ragged);
}

}  // namespace
}  // namespace redmule::workloads
