/// \file golden.hpp
/// \brief Bit-accurate reference models for RedMulE's GEMM.
///
/// The accelerator accumulates each Z element as a chain of FP16 FMAs in
/// ascending n order (one rounding per step). Two references are provided:
///  - golden_gemm(): that exact chain, for bit-exact comparison;
///  - golden_gemm_padded(): the chain *including* the fma(0,0,acc) steps the
///    array executes for zero-padded n (Fig. 2b). Padding is numerically
///    transparent except that it can turn a -0 accumulator into +0, so this
///    is the reference the cycle model must match bit-for-bit;
///  - golden_gemm_f64(): double-precision result for accuracy analyses.
#pragma once

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "fp16/float16.hpp"

namespace redmule::core {

using MatrixF16 = Matrix<fp16::Float16>;

/// Sequential FP16 FMA accumulation: Z[i][j] = fma(x[i][N-1], w[N-1][j], ...
/// fma(x[i][0], w[0][j], 0)).
MatrixF16 golden_gemm(const MatrixF16& x, const MatrixF16& w);

/// Same, with N padded up to a multiple of \p g.h with explicit zero FMAs --
/// bit-identical to the hardware array's output. If \p y is non-null the
/// accumulator starts from Y (the Z = Y + X*W extension) instead of zero.
/// Runs each chain step over a whole row of Z on fp16::fma_row; the scalar
/// chain it must equal is kept in tests/core/test_golden.cpp.
MatrixF16 golden_gemm_padded(const MatrixF16& x, const MatrixF16& w, const Geometry& g,
                             const MatrixF16* y = nullptr);

/// Double-precision reference (no intermediate rounding).
Matrix<double> golden_gemm_f64(const MatrixF16& x, const MatrixF16& w);

}  // namespace redmule::core
