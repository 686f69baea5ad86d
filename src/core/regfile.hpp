/// \file regfile.hpp
/// \brief HWPE-style memory-mapped register file of RedMulE.
///
/// The cluster cores program the accelerator through the peripheral
/// interconnect by writing these registers and then writing the TRIGGER
/// register (paper §II-B: "The Scheduler and the Controller ... contain the
/// register file, accessed by the cores to program the accelerator").
/// The layout follows the hwpe-ctrl convention: a small set of mandatory
/// control registers followed by job-specific ones.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "core/config.hpp"

namespace redmule::core {

/// Byte offsets inside the HWPE peripheral window.
enum RegOffset : uint32_t {
  kRegTrigger = 0x00,    ///< W: any write starts the offloaded job
  kRegAcquire = 0x04,    ///< R: returns job id, or -1 if busy (hwpe-ctrl)
  kRegFinished = 0x08,   ///< R: count of finished jobs
  kRegStatus = 0x0C,     ///< R: 0 = idle, 1 = running
  kRegRunningJob = 0x10, ///< R: id of the running job
  kRegSoftClear = 0x14,  ///< W: abort + reset the accelerator state
  // Job registers.
  kRegXPtr = 0x40,
  kRegWPtr = 0x44,
  kRegZPtr = 0x48,
  kRegM = 0x4C,
  kRegN = 0x50,
  kRegK = 0x54,
  kRegYPtr = 0x58,   ///< accumulation input (extension: Z = Y + X*W)
  kRegFlags = 0x5C,  ///< bit 0: accumulate
};

/// kRegFlags bits.
enum JobFlags : uint32_t {
  kFlagAccumulate = 1u << 0,
};

/// Register file state machine. The engine (engine.hpp) owns one of these;
/// cores reach it through the cluster's peripheral-interconnect model.
class RegFile {
 public:
  /// Core-side write. Returns true if the write triggered a job start.
  bool write(uint32_t offset, uint32_t value) {
    switch (offset) {
      case kRegTrigger:
        REDMULE_REQUIRE(!busy_, "trigger while the accelerator is busy");
        busy_ = true;
        return true;
      case kRegSoftClear:
        busy_ = false;
        return false;
      case kRegXPtr: job_.x_ptr = value; return false;
      case kRegWPtr: job_.w_ptr = value; return false;
      case kRegZPtr: job_.z_ptr = value; return false;
      case kRegM: job_.m = value; return false;
      case kRegN: job_.n = value; return false;
      case kRegK: job_.k = value; return false;
      case kRegYPtr: job_.y_ptr = value; return false;
      case kRegFlags: job_.accumulate = (value & kFlagAccumulate) != 0; return false;
      default:
        throw Error("write to unknown RedMulE register offset");
    }
  }

  uint32_t read(uint32_t offset) const {
    switch (offset) {
      case kRegAcquire: return busy_ ? 0xFFFFFFFFu : next_job_id_;
      case kRegFinished: return finished_jobs_;
      case kRegStatus: return busy_ ? 1 : 0;
      case kRegRunningJob: return running_job_id_;
      case kRegXPtr: return job_.x_ptr;
      case kRegWPtr: return job_.w_ptr;
      case kRegZPtr: return job_.z_ptr;
      case kRegM: return job_.m;
      case kRegN: return job_.n;
      case kRegK: return job_.k;
      case kRegYPtr: return job_.y_ptr;
      case kRegFlags: return job_.accumulate ? uint32_t{kFlagAccumulate} : 0u;
      default:
        throw Error("read from unknown RedMulE register offset");
    }
  }

  const Job& job() const { return job_; }
  bool busy() const { return busy_; }

  /// Engine-side hooks.
  void on_job_started() {
    running_job_id_ = next_job_id_++;
  }
  void on_job_finished() {
    busy_ = false;
    ++finished_jobs_;
  }
  void soft_clear() { busy_ = false; }
  /// Full re-initialization (unlike soft_clear, which keeps job ids and the
  /// programmed registers): freshly-constructed state for cluster reuse.
  void reset() { *this = RegFile{}; }

  friend bool operator==(const RegFile&, const RegFile&) = default;

 private:
  Job job_;
  bool busy_ = false;
  uint32_t next_job_id_ = 0;
  uint32_t running_job_id_ = 0xFFFFFFFFu;
  uint32_t finished_jobs_ = 0;
};

}  // namespace redmule::core
