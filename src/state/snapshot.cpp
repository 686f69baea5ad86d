#include "state/snapshot.hpp"

#include <cstring>

namespace redmule::state {

namespace {

/// L2 by logical content: a page both images share is equal without a look,
/// and an absent page reads as zeros.
bool same_l2(const mem::L2Memory::State& a, const mem::L2Memory::State& b) {
  static const mem::L2Memory::Page kZeroPage{};
  if (a.pages.size() != b.pages.size()) return false;
  for (size_t i = 0; i < a.pages.size(); ++i) {
    const mem::L2Memory::Page* pa = a.pages[i].get();
    const mem::L2Memory::Page* pb = b.pages[i].get();
    if (pa == pb) continue;
    if (std::memcmp(pa != nullptr ? pa : &kZeroPage, pb != nullptr ? pb : &kZeroPage,
                    mem::L2Memory::kPageBytes) != 0)
      return false;
  }
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
  img.tcdm = cl.tcdm().save_state();
  img.l2 = cl.l2().save_state();
  img.modules = cluster::ModuleState::save(cl);
  img.cores.reserve(cl.n_cores());
  for (unsigned i = 0; i < cl.n_cores(); ++i)
    img.cores.push_back(cl.core(i).save_state());
  return img;
}

void restore(cluster::Cluster& cl, const ClusterImage& img) {
  if (cl.config() != img.config)
    throw api::TypedError(
        api::ErrorCode::kBadConfig,
        "cluster restore refused: the image was taken on a different "
        "cluster configuration");
  // Restore must work from any state, including a cluster whose last job was
  // aborted mid-flight, without a whole-cluster reset first: the TCDM words,
  // the L2 page table and the kernel counters are overwritten wholesale, and
  // HCI, DMA, the engine and every core reset their transient side inside
  // their own restore_state() before installing the persistent one.
  cl.tcdm().restore_state(img.tcdm);
  cl.l2().restore_state(img.l2);
  img.modules.restore(cl);
  REDMULE_REQUIRE(img.cores.size() == cl.n_cores(),
                  "cluster restore: core count mismatch");
  for (unsigned i = 0; i < cl.n_cores(); ++i)
    cl.core(i).restore_state(img.cores[i]);
}

bool operator==(const ClusterImage& a, const ClusterImage& b) {
  return a.config == b.config && a.tcdm.words == b.tcdm.words && same_l2(a.l2, b.l2) &&
         a.modules == b.modules && a.cores == b.cores;
}

}  // namespace redmule::state
