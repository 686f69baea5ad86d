/// \file matrix.hpp
/// \brief Dense row-major matrix container used for GEMM operands.
///
/// RedMulE computes Z = X * W with X (M x N), W (N x K), Z (M x K); this
/// container mirrors the flat row-major layout those matrices have in the
/// TCDM, so a Matrix<Float16> can be copied into simulated memory verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace redmule {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  size_t size_bytes() const { return data_.size() * sizeof(T); }

  T& at(size_t r, size_t c) {
    REDMULE_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& at(size_t r, size_t c) const {
    REDMULE_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  T& operator()(size_t r, size_t c) { return at(r, c); }
  const T& operator()(size_t r, size_t c) const { return at(r, c); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
      for (size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
    return t;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

/// \p n rounded up to even: DMA rows are word-multiples, so every staged FP16
/// extent that becomes a DMA row length is padded to this.
inline uint32_t pad_even(uint32_t n) { return n + (n & 1u); }

/// Copies \p src into the top-left corner of a (rows x cols) zero matrix --
/// the staging rule for DMA-padded operands (pad entries are
/// value-initialized, i.e. +0 for Float16).
template <typename T>
Matrix<T> pad_to(const Matrix<T>& src, size_t rows, size_t cols) {
  REDMULE_ASSERT(rows >= src.rows() && cols >= src.cols());
  if (src.rows() == rows && src.cols() == cols) return src;
  Matrix<T> out(rows, cols);
  for (size_t r = 0; r < src.rows(); ++r)
    for (size_t c = 0; c < src.cols(); ++c) out(r, c) = src(r, c);
  return out;
}

/// The inverse of pad_to: the top-left (rows x cols) corner of \p src.
template <typename T>
Matrix<T> strip_to(const Matrix<T>& src, size_t rows, size_t cols) {
  REDMULE_ASSERT(rows <= src.rows() && cols <= src.cols());
  if (src.rows() == rows && src.cols() == cols) return src;
  Matrix<T> out(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) out(r, c) = src(r, c);
  return out;
}

}  // namespace redmule
