/// \file gemm.hpp
/// \brief GEMM workload generation for tests and benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "fp16/float16.hpp"

namespace redmule::workloads {

using MatrixF16 = Matrix<fp16::Float16>;

/// Uniform random FP16 matrix in [lo, hi). Values are exactly representable
/// FP16 (rounded at generation), so reference computations start bit-clean.
MatrixF16 random_matrix(size_t rows, size_t cols, Xoshiro256& rng, double lo = -1.0,
                        double hi = 1.0);

/// Matrix with every element equal to \p value.
MatrixF16 constant_matrix(size_t rows, size_t cols, double value);

/// One named GEMM problem Z[m x k] = X[m x n] * W[n x k].
struct GemmShape {
  std::string name;
  uint32_t m = 0;
  uint32_t n = 0;
  uint32_t k = 0;

  friend bool operator==(const GemmShape&, const GemmShape&) = default;

  uint64_t macs() const { return static_cast<uint64_t>(m) * n * k; }
  uint64_t bytes() const {
    return 2ull * (static_cast<uint64_t>(m) * n + static_cast<uint64_t>(n) * k +
                   static_cast<uint64_t>(m) * k);
  }
};

/// Square-size sweep used by the paper's Fig. 3c/3d/4a throughput plots.
std::vector<GemmShape> square_sweep(std::vector<uint32_t> sizes);

/// Ragged shapes exercising every padding path (M % L, N % H, K % j_slots).
std::vector<GemmShape> ragged_sweep();

/// Short-vs-long mix for batched-throughput measurements: small problems
/// that stress per-job overhead (offload latency, cluster reset) interleaved
/// with large ones that stress steady-state throughput. Worst case for
/// static job partitioning, which is why the batch runner work-steals.
std::vector<GemmShape> short_long_sweep();

}  // namespace redmule::workloads
