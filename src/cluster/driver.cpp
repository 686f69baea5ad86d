#include "cluster/driver.hpp"

#include "cluster/timing_cache.hpp"
#include "core/regfile.hpp"

namespace redmule::cluster {

RedmuleDriver::RedmuleDriver(Cluster& cluster)
    : cluster_(cluster), next_free_(cluster.tcdm().config().base_addr) {}

uint32_t RedmuleDriver::alloc(uint32_t bytes) {
  const auto& cfg = cluster_.tcdm().config();
  const uint32_t end = cfg.base_addr + cfg.size_bytes();
  const uint32_t addr = round_up(next_free_, 4u);
  // All comparisons are wrap-safe: `addr >= next_free_` rejects a round_up
  // past UINT32_MAX, and the request is checked as `bytes <= end - addr`
  // instead of `addr + bytes <= end`, which would wrap for huge requests.
  if (!(addr >= next_free_ && addr <= end && bytes <= end - addr))
    throw CapacityError("TCDM allocator out of memory (" +
                        std::to_string(bytes) + " bytes requested, " +
                        std::to_string(addr < end ? end - addr : 0) + " free)");
  next_free_ = addr + bytes;
  return addr;
}

void RedmuleDriver::free_all() {
  next_free_ = cluster_.tcdm().config().base_addr;
}

void RedmuleDriver::reset() {
  cluster_.reset();
  free_all();
  job_pending_ = false;
}

uint32_t RedmuleDriver::bytes_free() const {
  const auto& cfg = cluster_.tcdm().config();
  const uint32_t end = cfg.base_addr + cfg.size_bytes();
  const uint32_t addr = round_up(next_free_, 4u);
  // When next_free_ is within alignment distance of the TCDM end, round_up
  // can land past it; clamp to 0 instead of wrapping to ~4 GiB.
  if (addr < next_free_ || addr >= end) return 0;
  return end - addr;
}

void RedmuleDriver::write_matrix(uint32_t addr, const MatrixF16& m) {
  cluster_.tcdm().backdoor_write(addr, m.data(),
                                 static_cast<uint32_t>(m.size_bytes()));
}

MatrixF16 RedmuleDriver::read_matrix(uint32_t addr, size_t rows, size_t cols) const {
  MatrixF16 m(rows, cols);
  cluster_.tcdm().backdoor_read(addr, m.data(), static_cast<uint32_t>(m.size_bytes()));
  return m;
}

uint32_t RedmuleDriver::place_matrix(const MatrixF16& m) {
  const uint32_t addr = alloc(static_cast<uint32_t>(m.size_bytes()));
  write_matrix(addr, m);
  return addr;
}

void RedmuleDriver::start_job(const core::Job& job) {
  REDMULE_REQUIRE(!job_pending_, "a start_job() offload is already in flight");
  auto& rm = cluster_.redmule();
  // Each peripheral register write costs one cluster cycle, as it would for
  // the programming core.
  const std::pair<uint32_t, uint32_t> writes[] = {
      {core::kRegXPtr, job.x_ptr},
      {core::kRegWPtr, job.w_ptr},
      {core::kRegZPtr, job.z_ptr},
      {core::kRegYPtr, job.y_ptr},
      {core::kRegM, job.m},
      {core::kRegN, job.n},
      {core::kRegK, job.k},
      {core::kRegFlags, job.accumulate ? core::kFlagAccumulate : 0u},
  };
  for (const auto& [off, val] : writes) {
    rm.reg_write(off, val);
    cluster_.step();
  }
  rm.reg_write(core::kRegTrigger, 0);
  pending_job_ = job;
  job_pending_ = true;
}

core::JobStats RedmuleDriver::wait_job() {
  REDMULE_REQUIRE(job_pending_, "wait_job() without a pending start_job()");
  auto& rm = cluster_.redmule();
  const core::Job& job = pending_job_;
  const uint64_t timeout =
      1000 + job.macs() * 4 + static_cast<uint64_t>(job.m) * job.k * 64;
  const bool ok = cluster_.run_until([&] { return !rm.busy(); }, timeout);
  job_pending_ = false;
  if (!ok)
    throw TimeoutError("RedMulE job timed out after " + std::to_string(timeout) +
                       " cycles (deadlock?)");
  return rm.last_job_stats();
}

core::JobStats RedmuleDriver::run_job(const core::Job& job) {
  run_gemm_program(
      cluster_, job_pending_, job,
      [&] {
        start_job(job);
        wait_job();
        return TiledGemmStats{};
      },
      [](const ReplayedGemm&) {});
  return cluster_.redmule().last_job_stats();
}

core::JobStats RedmuleDriver::run_gemm(uint32_t x_addr, uint32_t w_addr,
                                       uint32_t z_addr, uint32_t m, uint32_t n,
                                       uint32_t k) {
  core::Job job;
  job.x_ptr = x_addr;
  job.w_ptr = w_addr;
  job.z_ptr = z_addr;
  job.m = m;
  job.n = n;
  job.k = k;
  return run_job(job);
}

RedmuleDriver::GemmResult RedmuleDriver::gemm(const MatrixF16& x, const MatrixF16& w) {
  return offload(x, w, nullptr);
}

RedmuleDriver::GemmResult RedmuleDriver::gemm_acc(const MatrixF16& x,
                                                  const MatrixF16& w,
                                                  const MatrixF16& y) {
  return offload(x, w, &y);
}

RedmuleDriver::GemmResult RedmuleDriver::offload(const MatrixF16& x,
                                                 const MatrixF16& w,
                                                 const MatrixF16* y) {
  REDMULE_REQUIRE(x.cols() == w.rows(), "GEMM shape mismatch");
  REDMULE_REQUIRE(!y || (y->rows() == x.rows() && y->cols() == w.cols()),
                  "Y shape mismatch");
  // Allocation order X, W, [Y], Z fixes every TCDM address.
  core::Job job;
  job.x_ptr = place_matrix(x);
  job.w_ptr = place_matrix(w);
  if (y) job.y_ptr = place_matrix(*y);
  job.z_ptr = alloc(static_cast<uint32_t>(x.rows() * w.cols() * sizeof(uint16_t)));
  job.m = static_cast<uint32_t>(x.rows());
  job.n = static_cast<uint32_t>(x.cols());
  job.k = static_cast<uint32_t>(w.cols());
  job.accumulate = y != nullptr;
  GemmResult res;
  res.stats = run_job(job);
  res.z = read_matrix(job.z_ptr, x.rows(), w.cols());
  return res;
}

}  // namespace redmule::cluster
