/// \file tiled_gemm.hpp
/// \brief Tile planning for L2-resident GEMMs streamed through the TCDM.
///
/// A GEMM whose operands do not fit the TCDM is computed as a grid of tile
/// jobs: Z is split into tile_m x tile_k output tiles, and each output tile
/// accumulates over tile_n-deep slices of the reduction dimension using the
/// engine's Y-accumulation flag (Z_partial' = Z_partial + X_slice * W_slice,
/// chained in place). The planner picks tile sizes from a TCDM byte budget
/// so that every streamed operand can be double-buffered -- the executor
/// (cluster/tiled_gemm_runner.hpp) then overlaps tile i's compute with tile
/// i+1's loads and tile i-1's store.
///
/// Bit-exactness contract: tile_n is kept a multiple of the array width H
/// (via j_slots), so the per-element FP16 FMA chain of the tiled schedule is
/// literally the monolithic chain cut at reduction boundaries -- no extra
/// zero-padding FMAs are introduced mid-chain, and the Z bits match
/// RedmuleDriver::gemm and golden_gemm_padded exactly.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "core/config.hpp"
#include "workloads/gemm.hpp"

namespace redmule::workloads {

/// A fully-determined tiling of Z[m x k] = X[m x n] * W[n x k] (+ Y).
/// Dimensions are the *staged* (DMA-padded, n and k even) problem sizes.
struct TiledGemmPlan {
  uint32_t m = 0, n = 0, k = 0;
  uint32_t tile_m = 0, tile_n = 0, tile_k = 0;
  bool has_y = false;  ///< a user Y operand is streamed into the Z buffers

  friend bool operator==(const TiledGemmPlan&, const TiledGemmPlan&) = default;

  uint32_t m_tiles() const { return ceil_div(m, tile_m); }
  uint32_t n_tiles() const { return ceil_div(n, tile_n); }
  uint32_t k_tiles() const { return ceil_div(k, tile_k); }
  uint32_t out_tiles() const { return m_tiles() * k_tiles(); }
  /// Tile jobs offloaded to the engine.
  uint32_t steps() const { return out_tiles() * n_tiles(); }

  // Per-buffer byte sizes (one ping or pong each).
  uint32_t x_buf_bytes() const { return tile_m * tile_n * 2; }
  uint32_t w_buf_bytes() const { return tile_n * tile_k * 2; }
  uint32_t z_buf_bytes() const { return tile_m * tile_k * 2; }

  /// Streamed operands get a ping/pong pair; an operand with a single tile
  /// for the whole job needs just one buffer (W additionally stays resident
  /// whenever it is not re-tiled at all -- the weight-stationary case).
  unsigned x_buffers() const { return steps() > 1 ? 2 : 1; }
  unsigned w_buffers() const { return n_tiles() * k_tiles() > 1 ? 2 : 1; }
  unsigned z_buffers() const { return out_tiles() > 1 ? 2 : 1; }

  uint64_t tcdm_bytes() const {
    return static_cast<uint64_t>(x_buffers()) * x_buf_bytes() +
           static_cast<uint64_t>(w_buffers()) * w_buf_bytes() +
           static_cast<uint64_t>(z_buffers()) * z_buf_bytes();
  }

  /// L2 footprint of the staged (padded) operands: X, W, the Z output area,
  /// and the Y input when present. The single source of truth for both the
  /// runner's staging check and the batch runner's cluster sizing.
  uint64_t staged_l2_bytes() const {
    return 2ull * (static_cast<uint64_t>(m) * n + static_cast<uint64_t>(n) * k +
                   static_cast<uint64_t>(m) * k * (has_y ? 2 : 1));
  }

  /// Total bytes the schedule moves over the DMA (planner cost model): X
  /// tiles are re-streamed once per k-tile, W tiles once per m-tile (unless
  /// W is resident), Z goes out once, Y comes in once when present.
  uint64_t dma_bytes() const {
    const uint64_t x_in = 2ull * m * n * k_tiles();
    const uint64_t w_in = w_buffers() == 1 ? 2ull * n * k : 2ull * n * k * m_tiles();
    const uint64_t z_out = 2ull * m * k;
    const uint64_t y_in = has_y ? 2ull * m * k : 0;
    return x_in + w_in + z_out + y_in;
  }

  void validate() const;
};

/// Picks the feasible plan with the least DMA traffic (ties: fewest steps,
/// then largest tiles) for the given TCDM byte budget. \p n and \p k must be
/// even (DMA rows are word-multiples; the runner pads odd operands when
/// staging them in L2). Throws redmule::Error when even the smallest aligned
/// tile set does not fit the budget.
TiledGemmPlan plan_tiled_gemm(uint32_t m, uint32_t n, uint32_t k, bool has_y,
                              uint64_t tcdm_budget_bytes, const core::Geometry& g);

/// The smallest aligned plan for the problem: its tcdm_bytes() is the
/// minimum budget plan_tiled_gemm can work with (used to size clusters that
/// must be able to run tiled jobs -- see the batch runner).
TiledGemmPlan min_tile_plan(uint32_t m, uint32_t n, uint32_t k, bool has_y,
                            const core::Geometry& g);

}  // namespace redmule::workloads
