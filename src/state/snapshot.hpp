/// \file snapshot.hpp
/// \brief Whole-cluster snapshot/restore: the provisioning primitive behind
///        fork-from-template serving (ROADMAP item 3).
///
/// A state::ClusterImage captures everything a quiescent cluster will ever
/// let a future job observe: both memories, the interconnect's round-robin
/// pointers and statistics, the DMA id/completion tracking, every core's
/// architectural state, the accelerator register file and job statistics,
/// and the kernel counters. Restoring an image onto a same-config cluster
/// makes it behaviorally bit-identical to the cluster the image was taken
/// from -- every subsequent job produces the same outputs, the same cycle
/// counts, the same statistics (restore-equals-snapshot, enforced alongside
/// reset-equals-constructed in tests/cluster/test_cluster_reset.cpp and
/// tests/state/test_snapshot.cpp).
///
/// Images are cheap to hold and cheap to fork: the dominant payload, L2, is
/// shared page-by-page with the live memory via the copy-on-write page table
/// (mem/l2.hpp), so cloning a multi-MB staged model costs a pointer vector.
/// This is what lets api::ClusterPool stamp out per-job clusters from one
/// staged template instead of re-running the whole weight-staging phase
/// (see api/pool.hpp acquire_template).
///
/// Contract: snapshot() is only legal at quiescence. Mid-flight transient
/// state (posted HCI requests, in-flight DMA beats, a running engine
/// schedule) is deliberately *not* representable in an image -- a snapshot
/// of a half-finished job is a bug in the caller, refused with a typed
/// kBadConfig. At quiescence that transient state is provably clear (each
/// module's is_idle() contract), so the per-module State structs capture
/// the persistent remainder completely.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/errors.hpp"

namespace redmule::state {

/// In-memory image of a quiescent cluster. Copyable: a copy shares the L2
/// pages (copy-on-write) and duplicates the small per-module states, so
/// images can be cached, handed across threads (the page refcounts are
/// atomic) and restored any number of times.
struct ClusterImage {
  cluster::ClusterConfig config{};
  sim::Simulator::State sim{};
  mem::Tcdm::State tcdm{};
  mem::L2Memory::State l2{};
  mem::Hci::State hci{};
  mem::DmaEngine::State dma{};
  core::RedmuleEngine::State engine{};
  std::vector<isa::RiscvCore::State> cores;
  /// FNV-1a over the image's logical memory contents and counters, filled
  /// by snapshot(). Two images of behaviorally identical clusters hash
  /// equal; used by tests and as the template-identity check in the pool.
  uint64_t fingerprint = 0;
};

/// Captures \p cl into an image. Throws api::TypedError(kBadConfig) when
/// the cluster is not quiescent -- a snapshot taken mid-flight would lose
/// in-flight interconnect/DMA/engine state and can never round-trip.
ClusterImage snapshot(const cluster::Cluster& cl);

/// Restores \p img onto \p cl: full reset, then per-module state install.
/// Works from *any* cluster state (including one whose last job was aborted
/// mid-flight -- reset clears the wreckage first). Throws
/// api::TypedError(kBadConfig) unless the cluster's config equals the
/// image's in every field (each shapes the state arrays or the timing).
void restore(cluster::Cluster& cl, const ClusterImage& img);

/// Recomputes the logical-content hash stored in ClusterImage::fingerprint.
uint64_t image_fingerprint(const ClusterImage& img);

}  // namespace redmule::state
