/// golden_gemm_padded runs on the FP16 row kernel (along k, or along m over
/// the transposed problem). It must stay bit-identical to the plain scalar
/// chain kept here as the reference: one Float16::fma per step, ascending n,
/// then the zero-pad FMAs up to a multiple of H. Checked over ragged n, both
/// vectorisation directions, the Y path, operands salted with every value
/// class, and the fast-FMA kill switch off.
#include <gtest/gtest.h>

#include <cstring>

#include "core/golden.hpp"
#include "workloads/gemm.hpp"

namespace redmule::core {
namespace {

using fp16::Float16;
using workloads::random_matrix;

/// The scalar chain the row-kernel version replaced.
MatrixF16 scalar_gemm_padded(const MatrixF16& x, const MatrixF16& w,
                             const Geometry& g, const MatrixF16* y) {
  const size_t n_pad = round_up(x.cols(), static_cast<size_t>(g.h));
  MatrixF16 z(x.rows(), w.cols());
  const Float16 zero;
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) {
      Float16 acc = y != nullptr ? (*y)(i, j) : Float16{};
      for (size_t n = 0; n < n_pad; ++n) {
        const Float16 a = n < x.cols() ? x(i, n) : zero;
        const Float16 b = n < x.cols() ? w(n, j) : zero;
        acc = Float16::fma(a, b, acc);
      }
      z(i, j) = acc;
    }
  }
  return z;
}

/// +-0, subnormals, +-max normal, +-Inf, qNaN, sNaN.
constexpr uint16_t kValueClasses[] = {0x0000, 0x8000, 0x0001, 0x83FF, 0x7BFF,
                                      0xFBFF, 0x7C00, 0xFC00, 0x7E00, 0x7D01};

MatrixF16 operand(size_t rows, size_t cols, uint64_t seed, bool salt) {
  Xoshiro256 rng(seed);
  MatrixF16 m = random_matrix(rows, cols, rng);
  if (salt)
    for (size_t i = 0; i < rows * cols; i += 5)
      m.data()[i] = Float16::from_bits(kValueClasses[(i / 5 + seed) % std::size(kValueClasses)]);
  return m;
}

void expect_matches_scalar(size_t m, size_t n, size_t k, const Geometry& g,
                           bool with_y, bool salt) {
  const MatrixF16 x = operand(m, n, 1 + m, salt);
  const MatrixF16 w = operand(n, k, 2 + n, salt);
  const MatrixF16 y = operand(m, k, 3 + k, salt);
  const MatrixF16* yp = with_y ? &y : nullptr;
  const MatrixF16 got = golden_gemm_padded(x, w, g, yp);
  const MatrixF16 want = scalar_gemm_padded(x, w, g, yp);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0)
      << m << "x" << n << "x" << k << " H=" << g.h << " y=" << with_y
      << " salted=" << salt;
}

void sweep() {
  const Geometry geoms[] = {{4, 8, 3}, {3, 4, 3}, {8, 8, 3}};
  // k >= m (along k) and k < m (along m), with n ragged against every H.
  const size_t shapes[][3] = {{1, 1, 1},  {5, 7, 9},   {9, 7, 5},  {16, 13, 40},
                              {40, 13, 16}, {33, 1, 2}, {2, 30, 33}, {17, 18, 17}};
  for (const Geometry& g : geoms)
    for (const auto& s : shapes)
      for (const bool with_y : {false, true})
        for (const bool salt : {false, true})
          expect_matches_scalar(s[0], s[1], s[2], g, with_y, salt);
}

TEST(GoldenGemmPadded, RowKernelMatchesTheScalarChain) { sweep(); }

TEST(GoldenGemmPadded, RowKernelMatchesTheScalarChainWithFastFmaOff) {
  fp16::set_fast_fma_enabled(false);
  sweep();
  fp16::set_fast_fma_enabled(true);
}

}  // namespace
}  // namespace redmule::core
