#include "state/snapshot.hpp"

#include <cstring>

namespace redmule::state {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t fnv_bytes(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv_u64(uint64_t h, uint64_t v) { return fnv_bytes(h, &v, sizeof(v)); }

bool page_all_zero(const mem::L2Memory::Page& page) {
  for (uint8_t b : page)
    if (b != 0) return false;
  return true;
}

}  // namespace

ClusterImage snapshot(const cluster::Cluster& cl) {
  if (!cl.sim().quiescent())
    throw api::TypedError(
        api::ErrorCode::kBadConfig,
        "cluster snapshot refused: the cluster is mid-flight (a module is "
        "not idle); snapshots are only legal at quiescence");
  ClusterImage img;
  img.config = cl.config();
  img.sim = cl.sim().save_state();
  img.tcdm = cl.tcdm().save_state();
  img.l2 = cl.l2().save_state();
  img.hci = cl.hci().save_state();
  img.dma = cl.dma().save_state();
  img.engine = cl.redmule().save_state();
  img.cores.reserve(cl.n_cores());
  for (unsigned i = 0; i < cl.n_cores(); ++i)
    img.cores.push_back(cl.core(i).save_state());
  img.fingerprint = image_fingerprint(img);
  return img;
}

void restore(cluster::Cluster& cl, const ClusterImage& img) {
  if (cl.config() != img.config)
    throw api::TypedError(
        api::ErrorCode::kBadConfig,
        "cluster restore refused: the image was taken on a different "
        "cluster configuration");
  // Reset first: restore must work from any state, including a cluster whose
  // last job was aborted mid-flight. The per-module restore_state() calls
  // then install the persistent state over the constructed baseline, in the
  // same order Cluster::reset() walks the hierarchy.
  cl.reset();
  cl.tcdm().restore_state(img.tcdm);
  cl.l2().restore_state(img.l2);
  cl.hci().restore_state(img.hci);
  cl.dma().restore_state(img.dma);
  cl.redmule().restore_state(img.engine);
  REDMULE_REQUIRE(img.cores.size() == cl.n_cores(),
                  "cluster restore: core count mismatch");
  for (unsigned i = 0; i < cl.n_cores(); ++i)
    cl.core(i).restore_state(img.cores[i]);
  cl.sim().restore_state(img.sim);
}

uint64_t image_fingerprint(const ClusterImage& img) {
  uint64_t h = kFnvOffset;
  h = fnv_bytes(h, img.tcdm.words.data(),
                img.tcdm.words.size() * sizeof(uint32_t));
  // L2 hashes by *logical* content: a resident all-zero page reads the same
  // as an absent one, so it must hash the same too.
  for (size_t i = 0; i < img.l2.pages.size(); ++i) {
    const auto& page = img.l2.pages[i];
    if (!page || page_all_zero(*page)) continue;
    h = fnv_u64(h, i);
    h = fnv_bytes(h, page->data(), page->size());
  }
  h = fnv_u64(h, img.sim.cycle);
  h = fnv_u64(h, img.dma.next_id);
  h = fnv_u64(h, img.dma.bytes_in);
  h = fnv_u64(h, img.dma.bytes_out);
  h = fnv_u64(h, img.hci.log_grants);
  h = fnv_u64(h, img.hci.shallow_grants);
  h = fnv_u64(h, img.engine.regfile.read(core::kRegFinished));
  h = fnv_u64(h, img.engine.last_stats.cycles);
  for (const auto& core : img.cores) {
    h = fnv_u64(h, core.stats.cycles);
    h = fnv_u64(h, core.stats.retired);
  }
  return h;
}

}  // namespace redmule::state
