#include "core/golden.hpp"

#include <vector>

namespace redmule::core {

using fp16::Float16;

MatrixF16 golden_gemm(const MatrixF16& x, const MatrixF16& w) {
  REDMULE_REQUIRE(x.cols() == w.rows(), "GEMM shape mismatch");
  MatrixF16 z(x.rows(), w.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) {
      Float16 acc;
      for (size_t n = 0; n < x.cols(); ++n) acc = Float16::fma(x(i, n), w(n, j), acc);
      z(i, j) = acc;
    }
  }
  return z;
}

MatrixF16 golden_gemm_padded(const MatrixF16& x, const MatrixF16& w,
                             const Geometry& g, const MatrixF16* y) {
  REDMULE_REQUIRE(x.cols() == w.rows(), "GEMM shape mismatch");
  if (y != nullptr)
    REDMULE_REQUIRE(y->rows() == x.rows() && y->cols() == w.cols(),
                    "Y shape mismatch");
  const size_t m = x.rows(), n = x.cols(), k = w.cols();
  const size_t n_pad = round_up(n, static_cast<size_t>(g.h));
  const Float16 zero;
  // Each Z element is the same ascending-n chain as the array's, padding
  // FMAs included; only the order in which elements advance differs. The
  // row kernel runs one chain step over a whole Z row (along k) or, for
  // tall-and-narrow problems, over a whole Z column of the transposed
  // problem (along m), whichever vector is longer.
  if (k >= m) {
    MatrixF16 z = y != nullptr ? *y : MatrixF16(m, k);
    const std::vector<Float16> zeros(k);
    const auto len = static_cast<unsigned>(k);
    for (size_t i = 0; i < m; ++i) {
      Float16* acc = &z(i, 0);
      // fma(x, w, acc) == fma(w, x, acc): the product commutes, and every
      // NaN result is the one canonical quiet NaN.
      for (size_t c = 0; c < n; ++c) fp16::fma_row(&w(c, 0), x(i, c), acc, acc, len);
      for (size_t c = n; c < n_pad; ++c) fp16::fma_row(zeros.data(), zero, acc, acc, len);
    }
    return z;
  }
  const MatrixF16 xt = x.transposed();
  MatrixF16 zt = y != nullptr ? y->transposed() : MatrixF16(k, m);
  const std::vector<Float16> zeros(m);
  const auto len = static_cast<unsigned>(m);
  for (size_t j = 0; j < k; ++j) {
    Float16* acc = &zt(j, 0);
    for (size_t c = 0; c < n; ++c) fp16::fma_row(&xt(c, 0), w(c, j), acc, acc, len);
    for (size_t c = n; c < n_pad; ++c) fp16::fma_row(zeros.data(), zero, acc, acc, len);
  }
  return zt.transposed();
}

Matrix<double> golden_gemm_f64(const MatrixF16& x, const MatrixF16& w) {
  REDMULE_REQUIRE(x.cols() == w.rows(), "GEMM shape mismatch");
  Matrix<double> z(x.rows(), w.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) {
      double acc = 0.0;
      for (size_t n = 0; n < x.cols(); ++n)
        acc += x(i, n).to_double() * w(n, j).to_double();
      z(i, j) = acc;
    }
  }
  return z;
}

}  // namespace redmule::core
