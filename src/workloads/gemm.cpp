#include "workloads/gemm.hpp"

namespace redmule::workloads {

using fp16::Float16;

MatrixF16 random_matrix(size_t rows, size_t cols, Xoshiro256& rng, double lo,
                        double hi) {
  MatrixF16 m(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c)
      m(r, c) = Float16::from_double(rng.next_double(lo, hi));
  return m;
}

MatrixF16 constant_matrix(size_t rows, size_t cols, double value) {
  return MatrixF16(rows, cols, Float16::from_double(value));
}

std::vector<GemmShape> ragged_sweep() {
  // Sizes chosen to hit every leftover class of the default geometry
  // (L = 8 rows, H = 4 n-chunk, 16 j-slots).
  return {
      {"1x1x1", 1, 1, 1},        {"3x5x7", 3, 5, 7},       {"8x16x16", 8, 16, 16},
      {"9x17x15", 9, 17, 15},    {"8x4x16", 8, 4, 16},     {"7x16x16", 7, 16, 16},
      {"8x16x13", 8, 16, 13},    {"8x13x16", 8, 13, 16},   {"16x32x32", 16, 32, 32},
      {"17x33x31", 17, 33, 31},  {"24x20x40", 24, 20, 40}, {"5x100x3", 5, 100, 3},
      {"64x2x64", 64, 2, 64},    {"2x64x2", 2, 64, 2},     {"31x31x31", 31, 31, 31},
  };
}

std::vector<GemmShape> short_long_sweep() {
  // ~200x MAC spread between the shortest and longest job; the short shapes
  // are dominated by programming/startup/drain, the long ones by the array's
  // steady state. Ragged sizes keep the padding paths hot in batch mode too.
  return {
      {"8x8x8", 8, 8, 8},       {"96x96x96", 96, 96, 96}, {"16x16x16", 16, 16, 16},
      {"12x16x20", 12, 16, 20}, {"80x64x96", 80, 64, 96}, {"8x32x8", 8, 32, 8},
      {"64x96x64", 64, 96, 64}, {"16x8x24", 16, 8, 24},
  };
}

}  // namespace redmule::workloads
