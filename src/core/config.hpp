/// \file config.hpp
/// \brief RedMulE design-time geometry and run-time job descriptor.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace redmule::core {

/// Design-time parameters of the FMA array (paper §II-B).
///
/// The array has L rows by H columns of FP16 FMA units; each FMA has P
/// internal pipeline registers (latency P+1). A row keeps H*(P+1) partial
/// results in flight, so every tile covers H*(P+1) columns of Z ("j-slots").
/// The default {H=4, L=8, P=3} is the 32-FMA instance taped out in the paper.
struct Geometry {
  unsigned h = 4;  ///< columns of FMAs per row
  unsigned l = 8;  ///< rows of FMAs
  unsigned p = 3;  ///< pipeline registers inside each FMA

  friend bool operator==(const Geometry&, const Geometry&) = default;

  unsigned fma_latency() const { return p + 1; }
  unsigned n_fmas() const { return h * l; }
  /// Concurrent j-indices per row = Z-tile width (16 for the default).
  unsigned j_slots() const { return h * fma_latency(); }
  /// Streamer payload width in bits (256 for the default geometry).
  unsigned data_width_bits() const { return j_slots() * 16; }
  /// TCDM ports: payload words + 1 for non-word-aligned accesses (9 default).
  unsigned mem_ports() const { return data_width_bits() / 32 + 1; }

  void validate() const {
    REDMULE_REQUIRE(h >= 1 && h <= 64, "H out of range");
    REDMULE_REQUIRE(l >= 1 && l <= 256, "L out of range");
    REDMULE_REQUIRE(p <= 15, "P out of range");
  }
};

/// One offloaded job: Z = X * W (plus optionally + Y) with X (M x N),
/// W (N x K), Y/Z (M x K), all FP16 row-major in TCDM. Mirrors the HWPE
/// register file contents (regfile.hpp). The Y-accumulation GEMM is the
/// generalization the RedMulE line later shipped (journal version); the DATE
/// paper's experiments all run with accumulate = false.
struct Job {
  uint32_t x_ptr = 0;  ///< byte address of X in TCDM, 16-bit aligned
  uint32_t w_ptr = 0;  ///< byte address of W
  uint32_t z_ptr = 0;  ///< byte address of Z
  uint32_t y_ptr = 0;  ///< byte address of Y (used when accumulate is set)
  uint32_t m = 0;
  uint32_t n = 0;
  uint32_t k = 0;
  bool accumulate = false;  ///< Z = Y + X*W instead of Z = X*W

  friend bool operator==(const Job&, const Job&) = default;

  void validate() const {
    REDMULE_REQUIRE(m >= 1 && n >= 1 && k >= 1, "matrix sizes must be positive");
    REDMULE_REQUIRE((x_ptr & 1u) == 0 && (w_ptr & 1u) == 0 && (z_ptr & 1u) == 0,
                    "matrix pointers must be 16-bit aligned");
    if (accumulate)
      REDMULE_REQUIRE((y_ptr & 1u) == 0, "Y pointer must be 16-bit aligned");
  }

  uint64_t macs() const { return static_cast<uint64_t>(m) * n * k; }
};

/// Tiling derived from a job and a geometry (paper §II-C working principle).
struct Tiling {
  unsigned m_tiles;   ///< ceil(M / L): row blocks of Z
  unsigned k_tiles;   ///< ceil(K / j_slots): column blocks of Z
  unsigned n_chunks;  ///< ceil(N / H): feedback traversals per tile
  unsigned x_groups;  ///< ceil(N / j_slots): X-buffer refills per tile

  Tiling(const Job& job, const Geometry& g)
      : m_tiles(ceil_div(job.m, g.l)),
        k_tiles(ceil_div(job.k, g.j_slots())),
        n_chunks(ceil_div(job.n, g.h)),
        x_groups(ceil_div(job.n, g.j_slots())),
        m_(job.m),
        k_(job.k),
        l_(g.l),
        js_(g.j_slots()) {}

  unsigned tiles() const { return m_tiles * k_tiles; }
  /// Rows of Z that row tile \p mt covers: L, or M - mt*L on the last one.
  /// Together with valid_cols() this is the one definition of which array
  /// lanes are loaded, computed and stored.
  unsigned valid_rows(unsigned mt) const { return std::min(l_, m_ - mt * l_); }
  /// Columns of Z that column tile \p kt covers: j_slots, or K - kt*j_slots.
  unsigned valid_cols(unsigned kt) const { return std::min(js_, k_ - kt * js_); }

 private:
  unsigned m_, k_, l_, js_;
};

/// Analytical lower bound on the job's execution cycles, assuming perfect
/// overlap of memory and compute (used by tests as a regression oracle and
/// by EXPERIMENTS.md to report utilization).
inline uint64_t ideal_cycles(const Job& job, const Geometry& g) {
  const Tiling t(job, g);
  // Each tile runs n_chunks traversals of j_slots cycles; the array drains
  // one extra traversal at the very end; the first X group preload (L loads)
  // cannot be hidden.
  return static_cast<uint64_t>(t.tiles()) * t.n_chunks * g.j_slots() + g.j_slots() +
         g.l;
}

}  // namespace redmule::core
