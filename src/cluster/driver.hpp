/// \file driver.hpp
/// \brief Host-side driver mirroring the RedMulE runtime API used by the
///        cluster cores: TCDM allocation, matrix movement, job offload and
///        completion wait. This is the public API the examples build on.
///
/// The programming sequence models what a core does through the peripheral
/// interconnect (write job registers, write TRIGGER, wait for the event):
/// each register access costs one cluster cycle, so offload latency is part
/// of every measurement, as in the paper's small-matrix utilization plots.
/// run_job() goes through the timing-cache seam (cluster/timing_cache.hpp):
/// on a pooled cluster a repeated job replays its recorded outcome instead
/// of running the cycle model; the results, cycles and state are the
/// model's either way.
#pragma once

#include "cluster/cluster.hpp"
#include "common/matrix.hpp"
#include "core/golden.hpp"

namespace redmule::cluster {

using core::MatrixF16;

class RedmuleDriver {
 public:
  explicit RedmuleDriver(Cluster& cluster);

  /// Bump-allocates \p bytes of TCDM (4-byte aligned). Throws when full.
  uint32_t alloc(uint32_t bytes);
  /// Resets the allocator (does not clear memory contents).
  void free_all();
  uint32_t bytes_free() const;
  /// Scoped sub-allocation: alloc_mark() snapshots the bump pointer and
  /// free_to() rewinds to a previous mark (the tiled runner releases its
  /// tile buffers this way once the result has been read back from L2).
  uint32_t alloc_mark() const { return next_free_; }
  void free_to(uint32_t mark) {
    REDMULE_REQUIRE(mark >= cluster_.tcdm().config().base_addr && mark <= next_free_,
                    "free_to mark is not a prior allocation point");
    next_free_ = mark;
  }

  /// Full in-place re-initialization: rewinds the allocator and resets the
  /// whole cluster (Cluster::reset). After this call the pair behaves
  /// bit-identically to a freshly constructed Cluster + RedmuleDriver, even
  /// after an aborted or timed-out job.
  void reset();

  /// Copies a matrix into TCDM at \p addr (backdoor, zero simulated time --
  /// data movement is measured separately via the DMA, see examples).
  void write_matrix(uint32_t addr, const MatrixF16& m);
  MatrixF16 read_matrix(uint32_t addr, size_t rows, size_t cols) const;

  /// Allocates and writes a matrix; returns its TCDM address.
  uint32_t place_matrix(const MatrixF16& m);

  /// Programs the register file, triggers the job, and steps the cluster
  /// until completion. Returns the accelerator's per-job counters.
  core::JobStats run_gemm(uint32_t x_addr, uint32_t w_addr, uint32_t z_addr,
                          uint32_t m, uint32_t n, uint32_t k);

  /// Fully general offload (covers the Z = Y + X*W accumulation extension),
  /// through the timing-cache seam (cluster/timing_cache.hpp). gemm(),
  /// gemm_acc() and run_gemm() all end here; start_job()/wait_job() never
  /// consult the cache.
  core::JobStats run_job(const core::Job& job);

  /// Non-blocking offload: programs the register file and triggers the job,
  /// then returns -- the caller keeps stepping the cluster (e.g. to stream
  /// DMA tiles concurrently) and collects the counters with wait_job().
  /// This is the primitive the tiled-GEMM pipeline overlaps compute on.
  void start_job(const core::Job& job);
  /// Steps the cluster until the job launched by start_job() completes;
  /// returns its counters. Throws on timeout (deadlock guard).
  core::JobStats wait_job();
  /// True while a start_job() offload has not been reaped by wait_job().
  bool job_pending() const { return job_pending_; }

  /// Convenience wrapper: places X and W, runs, reads Z back.
  struct GemmResult {
    MatrixF16 z;
    core::JobStats stats;
  };
  GemmResult gemm(const MatrixF16& x, const MatrixF16& w);
  /// Accumulating variant: Z = Y + X * W.
  GemmResult gemm_acc(const MatrixF16& x, const MatrixF16& w, const MatrixF16& y);

 private:
  /// Places X, W and (when given) Y, runs Z = [Y +] X * W, reads Z back.
  GemmResult offload(const MatrixF16& x, const MatrixF16& w, const MatrixF16* y);

  Cluster& cluster_;
  uint32_t next_free_;
  core::Job pending_job_{};   ///< job launched by start_job(), for wait_job()
  bool job_pending_ = false;
};

}  // namespace redmule::cluster
