/// \file tiled_gemm_runner.hpp
/// \brief Software-pipelined executor for L2-resident tiled GEMMs.
///
/// Operands are staged in L2 (padded so every DMA row is a word-multiple),
/// tile buffers are allocated from the TCDM through RedmuleDriver, and the
/// plan's tile grid is drained through a three-stage pipeline:
///
///     while tile i computes on RedMulE,
///       tile i+1's X/W slices stream L2 -> TCDM into the ping/pong pair, and
///       tile i-1's finished Z tile streams TCDM -> L2
///
/// all on the same simulated cluster cycle, the DMA beats contending with
/// the accelerator's streamer on the HCI like in the real cluster. The
/// reduction dimension accumulates in place through the engine's
/// Y-accumulation flag (y_ptr == z_ptr: the streamer reads a tile's Y lines
/// strictly before it stores that tile's Z lines, so chaining partial sums
/// through one buffer is race-free).
///
/// Determinism: the result (Z bits, cycle counts, per-step engine counters)
/// is a pure function of (inputs, plan, cluster config) -- there is no
/// wall-clock or thread dependence, so tiled jobs keep the batch runner's
/// bit-reproducibility contract. The timing part does not depend on the
/// operand values at all (tests/cluster/test_timing_contract.cpp), which is
/// what lets a cluster with a TimingCache attached replay a repeated
/// run_staged() call instead of simulating it (cluster/timing_cache.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "workloads/tiled_gemm.hpp"

namespace redmule::cluster {

struct TiledGemmOptions {
  /// false: strictly serial reference schedule (load, compute, store, with
  /// every DMA waited on before the next stage) -- the overlap baseline the
  /// bench compares against.
  bool double_buffer = true;
};

struct TiledGemmStats {
  uint64_t total_cycles = 0;    ///< pipeline start to last Z byte in L2
  uint64_t compute_cycles = 0;  ///< sum of per-tile-job engine cycles
  uint64_t dma_wait_cycles = 0; ///< cycles the pipeline idled waiting on DMA
  uint64_t advance_cycles = 0;  ///< engine counters aggregated over tile jobs
  uint64_t stall_cycles = 0;
  uint64_t fma_ops = 0;
  uint64_t dma_bytes_in = 0;    ///< L2 -> TCDM bytes moved
  uint64_t dma_bytes_out = 0;   ///< TCDM -> L2 bytes moved
  uint64_t macs = 0;            ///< useful MACs of the logical problem
  uint32_t steps = 0;           ///< tile jobs offloaded

  friend bool operator==(const TiledGemmStats&, const TiledGemmStats&) = default;

  double macs_per_cycle() const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(macs) /
                                   static_cast<double>(total_cycles);
  }
  /// 1.0 = the DMA is fully hidden behind compute (plus offload overhead).
  double overlap_efficiency() const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(compute_cycles) /
                                   static_cast<double>(total_cycles);
  }
  double dma_bytes_per_cycle() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(dma_bytes_in + dma_bytes_out) /
                     static_cast<double>(total_cycles);
  }
};

/// Byte addresses of a GEMM whose operands are *already resident in L2* in
/// the plan's padded shapes: X is (m x n) with row stride n elements, W is
/// (n x k) stride k, Z and Y are (m x k) stride k -- exactly the layout
/// staging with pad_to produces. This is how multi-GEMM pipelines (the
/// network executor) chain layers without round-tripping activations through
/// the host: the Z region of one run_staged call is the W region of the next.
struct StagedGemm {
  uint32_t x_addr = 0;
  uint32_t w_addr = 0;
  uint32_t z_addr = 0;
  uint32_t y_addr = 0;  ///< read when the plan has has_y set

  friend bool operator==(const StagedGemm&, const StagedGemm&) = default;
};

class TiledGemmRunner {
 public:
  TiledGemmRunner(Cluster& cluster, RedmuleDriver& driver,
                  TiledGemmOptions opts = {});

  struct Result {
    core::MatrixF16 z;
    TiledGemmStats stats;
    workloads::TiledGemmPlan plan;
  };

  /// Plans from the driver's current bytes_free() and runs. \p y, when
  /// non-null, is the Z = Y + X*W accumulation input.
  Result run(const MatrixF16& x, const MatrixF16& w,
             const MatrixF16* y = nullptr);

  /// Runs a caller-supplied plan (tests force specific tile shapes with
  /// this). The plan must match the padded operand sizes and fit the TCDM.
  Result run_planned(const MatrixF16& x, const MatrixF16& w, const MatrixF16* y,
                     const workloads::TiledGemmPlan& plan);

  /// Drains one tile grid over operands already staged in L2 at \p addrs
  /// (see StagedGemm for the required layout); Z is left in L2, not read
  /// back. Allocates its TCDM tile buffers from the driver and releases them
  /// before returning, so back-to-back calls replan from the full budget.
  /// The returned stats.macs is left 0 -- only the caller knows the problem's
  /// unpadded useful extents; fill it in the way run_planned and
  /// NetworkRunner do. With a timing cache attached (pooled clusters only)
  /// a call whose key was recorded replays it: same Z, L2, TCDM, cycles and
  /// counters, without running the cycle model.
  TiledGemmStats run_staged(const StagedGemm& addrs,
                            const workloads::TiledGemmPlan& plan);

 private:
  /// True when a timing cache is attached and may serve this call: no fault
  /// plan or schedule observer, idle skipping on, a quiescent cluster on
  /// entry, and Z disjoint from X, W and (unless it is Y itself) Y.
  bool replayable(const StagedGemm& addrs,
                  const workloads::TiledGemmPlan& plan) const;

  Cluster& cl_;
  RedmuleDriver& drv_;
  TiledGemmOptions opts_;
};

}  // namespace redmule::cluster
