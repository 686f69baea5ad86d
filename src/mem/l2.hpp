/// \file l2.hpp
/// \brief Cluster-external L2 memory model, page-backed and copy-on-write.
///
/// The PULP SoC keeps bulk data (weights, activations for large batches) in
/// an L2 SRAM outside the cluster, reached through the AXI port. Only
/// capacity and DMA-visible bandwidth matter for the paper's experiments
/// (the B=16 AutoEncoder working set of 184 kB must fit; transfers overlap
/// with compute), so the model is byte storage with a bandwidth/latency pair
/// consumed by the DMA engine.
///
/// Storage is sparse: the address space is split into 64 KiB pages held as
/// shared_ptr slots, where a null slot reads as zeros. This keeps two
/// promises the flat vector could not:
///
///  - multi-MB configs cost nothing until touched, so resolve_cluster_config
///    can admit models far past the dense-allocation comfort zone; and
///  - snapshot/fork is O(pages): an image shares the page pointers, and the
///    first write to a shared page copies just that page (copy-on-write).
///    shared_ptr refcounts are atomic, so images forked onto other workers'
///    clusters share pages across threads safely.
///
/// Page residency doubles as the dirty bookkeeping: reset() drops every
/// page, which *is* the freshly-constructed (all-zero) state, and because
/// restore_state() installs the image's residency wholesale, a
/// restored-then-reset memory equals constructed by construction -- the
/// dirty-tracking contract the old single-flag scheme could not extend to
/// restore.
///
/// COW safety argument for the use_count()==1 fast path: a page's refcount
/// can only grow from 1 via save_state() on this L2Memory, and the cluster
/// that owns it is single-threaded -- snapshotting and writing never race.
/// Counts >= 2 only ever involve immutable image holders, which never write.
///
/// The same argument lets reset() and restore_state() keep the private pages
/// they drop as spare storage, which writable_page() refills (zeroes or
/// copies) before it installs one. A pooled cluster that forks a template per
/// job thus reuses the pages its previous job copied instead of returning
/// them to the heap, where the allocator may trim them and the next job would
/// fault them back in. Spares are never read and never part of a State. They
/// are the private pages of the last drop that found any, so unused spares
/// never outlive the next such drop.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"

namespace redmule::mem {

struct L2Config {
  uint32_t base_addr = 0x1C000000;
  uint32_t size_bytes = 1536 * 1024;  ///< 1.5 MiB, typical PULP SoC L2
  unsigned bytes_per_cycle = 8;       ///< 64-bit AXI beat
  unsigned access_latency = 10;       ///< cycles to first beat of a burst

  friend bool operator==(const L2Config&, const L2Config&) = default;
};

class L2Memory {
 public:
  static constexpr uint32_t kPageBytes = 64 * 1024;
  using Page = std::array<uint8_t, kPageBytes>;

  /// Snapshot of the memory contents: the page table with every resident
  /// page shared (not copied). Cheap to take, cheap to clone, and immutable
  /// by convention -- all mutation goes through L2Memory, which copies a
  /// shared page before the first write lands on it.
  struct State {
    std::vector<std::shared_ptr<Page>> pages;

    /// Bytes actually backed by allocated pages (the sparse footprint).
    uint64_t resident_bytes() const;
  };

  explicit L2Memory(L2Config cfg = {});

  const L2Config& config() const { return cfg_; }

  bool contains(uint32_t addr, uint32_t len = 1) const {
    return addr >= cfg_.base_addr && addr + len <= cfg_.base_addr + cfg_.size_bytes;
  }

  void write(uint32_t addr, const void* src, uint32_t len);
  void read(uint32_t addr, void* dst, uint32_t len) const;
  void fill(uint8_t byte = 0);

  /// In-place re-initialization to the freshly-constructed state. Dropping
  /// the page table is the whole job: absent pages read as zero, so this is
  /// O(resident pages) regardless of capacity -- never a multi-MB memset.
  void reset();

  /// Shares the current page table into a State (copy-on-write from here on).
  State save_state() const;
  /// Installs \p s wholesale: contents *and* residency, so a subsequent
  /// reset() still restores the constructed state. Pages stay shared with
  /// the image; the first write to each copies it.
  void restore_state(const State& s);

  /// Sparse footprint of the live memory, for stats and tests.
  uint64_t resident_bytes() const;

 private:
  /// Returns a writable pointer to the page holding \p page_idx, allocating
  /// a zero page or copying a shared one as needed.
  Page* writable_page(size_t page_idx);
  /// Empties the page table. Its private pages, if any, replace the spares.
  void drop_pages();

  L2Config cfg_;
  std::vector<std::shared_ptr<Page>> pages_;
  std::vector<std::shared_ptr<Page>> spare_;  ///< private, contents stale
};

}  // namespace redmule::mem
