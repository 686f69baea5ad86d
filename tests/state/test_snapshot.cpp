// Contracts of the snapshot/fork subsystem (state/snapshot.hpp + the
// page-backed COW L2 behind it):
//
//  - ROUND TRIP: restore-equals-snapshot -- restoring an image and
//    re-snapshotting gives an image == the restored one (every module's
//    state differs from reset there, so a restore that skips one fails),
//    and jobs run after a restore are bit-identical to jobs run right after
//    the snapshot point.
//  - EQUALITY: images compare by logical content -- an absent L2 page
//    equals an all-zero one, FP registers compare by encoding.
//  - COW L2: untouched pages are shared between a memory and its images
//    (O(pages) forks, no byte copies); the first write to a shared page
//    copies exactly that page; all-zero writes to absent pages never
//    materialize storage; pages a reset or restore drops are reused only
//    after a refill.
//  - RESET INTERACTION: a restored-then-reset memory equals a freshly
//    constructed one (residency is the dirty bookkeeping, installed
//    wholesale by restore), and likewise for the whole cluster.
//  - REFUSALS: mid-flight snapshots and config-incompatible restores fail
//    with typed kBadConfig, never a crash or a silently wrong image.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/regfile.hpp"
#include "mem/l2.hpp"
#include "state/snapshot.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

using namespace redmule;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkRunner;
using cluster::RedmuleDriver;
using mem::L2Memory;

namespace {

struct JobOutcome {
  core::JobStats stats;
  core::MatrixF16 z;
};

JobOutcome run_gemm(Cluster& cl, RedmuleDriver& drv, uint64_t seed) {
  (void)cl;  // the driver owns the cluster reference; kept for call-site symmetry
  Xoshiro256 rng(seed);
  const auto x = workloads::random_matrix(24, 24, rng);
  const auto w = workloads::random_matrix(24, 24, rng);
  auto res = drv.gemm(x, w);
  return {res.stats, std::move(res.z)};
}

void expect_same(const JobOutcome& a, const JobOutcome& b, const char* what) {
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
  EXPECT_EQ(a.stats.advance_cycles, b.stats.advance_cycles) << what;
  EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles) << what;
  ASSERT_EQ(a.z.size_bytes(), b.z.size_bytes());
  EXPECT_EQ(std::memcmp(a.z.data(), b.z.data(), a.z.size_bytes()), 0) << what;
}

}  // namespace

// --- Page-backed COW L2 ------------------------------------------------------

TEST(L2Cow, ImagesSharePagesAndWritesCopyExactlyOne) {
  L2Memory l2;
  const uint32_t base = l2.config().base_addr;
  const uint8_t pattern[4] = {0xde, 0xad, 0xbe, 0xef};
  l2.write(base, pattern, 4);
  l2.write(base + L2Memory::kPageBytes, pattern, 4);  // second page
  EXPECT_EQ(l2.resident_bytes(), 2ull * L2Memory::kPageBytes);

  const L2Memory::State img = l2.save_state();
  EXPECT_EQ(img.resident_bytes(), 2ull * L2Memory::kPageBytes);
  // Shared, not copied: the image and the live memory hold the same pages.
  ASSERT_GE(img.pages.size(), 2u);
  EXPECT_EQ(img.pages[0].use_count(), 2);
  EXPECT_EQ(img.pages[1].use_count(), 2);

  // First write to a shared page copies it; the image keeps the old bytes
  // and only the touched page diverges.
  const uint8_t clobber = 0x55;
  l2.write(base, &clobber, 1);
  const L2Memory::State after = l2.save_state();
  EXPECT_NE(after.pages[0].get(), img.pages[0].get()) << "page 0 must COW";
  EXPECT_EQ(after.pages[1].get(), img.pages[1].get())
      << "untouched page 1 must stay shared";
  EXPECT_EQ((*img.pages[0])[0], 0xde) << "the image must keep the old bytes";
  uint8_t back = 0;
  l2.read(base, &back, 1);
  EXPECT_EQ(back, 0x55);
}

TEST(L2Cow, ZeroWritesToAbsentPagesStaySparse) {
  L2Memory l2;
  const std::vector<uint8_t> zeros(3 * L2Memory::kPageBytes, 0);
  l2.write(l2.config().base_addr, zeros.data(),
           static_cast<uint32_t>(zeros.size()));
  EXPECT_EQ(l2.resident_bytes(), 0u)
      << "zero-filling untouched address space must not materialize pages";
  std::vector<uint8_t> back(zeros.size(), 0xff);
  l2.read(l2.config().base_addr, back.data(),
          static_cast<uint32_t>(back.size()));
  for (size_t i = 0; i < back.size(); ++i) ASSERT_EQ(back[i], 0) << "byte " << i;
}

TEST(L2Cow, RestoredThenResetEqualsConstructed) {
  // The dirty-tracking/reset regression: residency is installed wholesale by
  // restore_state, so reset() after a restore must land exactly on the
  // constructed (all-absent, all-zero) state -- not on the restored image,
  // and not on a half-tracked mixture.
  L2Memory l2;
  const uint32_t base = l2.config().base_addr;
  const uint8_t pattern[2] = {0xaa, 0xbb};
  l2.write(base + 100, pattern, 2);
  const L2Memory::State img = l2.save_state();

  l2.write(base + L2Memory::kPageBytes + 7, pattern, 2);  // extra dirty page
  l2.restore_state(img);
  EXPECT_EQ(l2.resident_bytes(), 1ull * L2Memory::kPageBytes)
      << "restore must install the image's residency, dropping later pages";

  l2.reset();
  EXPECT_EQ(l2.resident_bytes(), 0u) << "restored-then-reset == constructed";
  uint8_t back[2] = {0xff, 0xff};
  l2.read(base + 100, back, 2);
  EXPECT_EQ(back[0], 0);
  EXPECT_EQ(back[1], 0);
}

TEST(L2Cow, DroppedPagesAreReusedOnlyAfterARefill) {
  // reset() and restore_state() keep the private pages they drop and the
  // next page materialization reuses that storage: zero-filled for an
  // absent page, overwritten by the image's bytes for a COW copy. Stale
  // bytes must never show through.
  L2Memory l2;
  const uint32_t base = l2.config().base_addr;
  const uint32_t page = L2Memory::kPageBytes;
  const std::vector<uint8_t> ones(page, 0x11), image_bytes(page, 0xaa);
  const auto read_page = [&](uint32_t idx) {
    std::vector<uint8_t> v(page);
    l2.read(base + idx * page, v.data(), page);
    return v;
  };

  // Absent page after reset(): the dropped page 0 comes back as page 2, zeroed.
  l2.write(base, ones.data(), page);
  const L2Memory::Page* dropped = l2.save_state().pages[0].get();
  l2.reset();
  const uint8_t one = 0x22;
  l2.write(base + 2 * page + 5, &one, 1);
  EXPECT_EQ(l2.save_state().pages[2].get(), dropped) << "storage reused";
  std::vector<uint8_t> want(page, 0);
  want[5] = 0x22;
  EXPECT_EQ(read_page(2), want);

  // COW after restore_state(): a job's private page 1 comes back as the copy
  // of the image's page 0, holding the image's bytes.
  l2.reset();
  l2.write(base, image_bytes.data(), page);
  const L2Memory::State img = l2.save_state();
  l2.write(base + page, ones.data(), page);
  dropped = l2.save_state().pages[1].get();
  l2.restore_state(img);
  l2.write(base + 9, &one, 1);
  EXPECT_EQ(l2.save_state().pages[0].get(), dropped) << "storage reused";
  want.assign(page, 0xaa);
  want[9] = 0x22;
  EXPECT_EQ(read_page(0), want);
  EXPECT_EQ(read_page(1), std::vector<uint8_t>(page, 0));
  EXPECT_EQ((*img.pages[0])[9], 0xaa) << "the image must keep its bytes";
}

// --- Whole-cluster snapshot/restore ------------------------------------------

TEST(Snapshot, RestoreEqualsSnapshotAcrossJobs) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  // History before the snapshot: a tiled GEMM moves its tiles by DMA, so
  // every module's state differs from reset at the snapshot point.
  {
    Xoshiro256 rng(split_seed(31, 0));
    const auto x = workloads::random_matrix(40, 56, rng);
    const auto w = workloads::random_matrix(56, 48, rng);
    (void)cluster::TiledGemmRunner(cl, drv).run(x, w);
  }
  drv.free_all();  // pin the host-side allocator at the snapshot point

  const state::ClusterImage img = state::snapshot(cl);
  const cluster::ModuleState reset_state = cluster::ModuleState::save(Cluster{ClusterConfig{}});
  EXPECT_FALSE(img.modules.sim == reset_state.sim);
  EXPECT_FALSE(img.modules.hci == reset_state.hci);
  EXPECT_FALSE(img.modules.dma == reset_state.dma);
  EXPECT_FALSE(img.modules.engine == reset_state.engine);

  // The job run right after the snapshot point is the oracle...
  const JobOutcome oracle = run_gemm(cl, drv, split_seed(31, 1));

  // ...and after restoring -- from a different, dirtier state -- the same
  // job must reproduce it bit for bit, and the re-snapshot must equal the
  // image (restore-equals-snapshot).
  (void)run_gemm(cl, drv, split_seed(31, 2));
  state::restore(cl, img);
  EXPECT_TRUE(state::snapshot(cl) == img);
  drv.free_all();  // the driver is host state: rewind it like the snapshot did
  const JobOutcome replay = run_gemm(cl, drv, split_seed(31, 1));
  expect_same(replay, oracle, "job after restore vs job after snapshot");
}

TEST(Snapshot, ImagesCompareByLogicalContent) {
  Cluster cl{ClusterConfig{}};
  const state::ClusterImage img = state::snapshot(cl);
  ASSERT_FALSE(img.cores.empty());
  ASSERT_FALSE(img.l2.pages.empty());
  ASSERT_EQ(img.l2.pages[0], nullptr);

  state::ClusterImage other = img;
  EXPECT_TRUE(other == img);
  // An all-zero page reads like the absent one it stands for; a set byte
  // does not.
  other.l2.pages[0] = std::make_shared<L2Memory::Page>();
  EXPECT_TRUE(other == img);
  (*other.l2.pages[0])[7] = 1;
  EXPECT_FALSE(other == img);

  // FP registers compare by encoding: -0 is not +0, and a NaN equals itself.
  other = img;
  other.cores[0].f[3] = fp16::Float16::from_bits(0x8000);
  EXPECT_FALSE(other == img);
  state::ClusterImage nan_a = img, nan_b = img;
  nan_a.cores[0].f[3] = nan_b.cores[0].f[3] = fp16::Float16::from_bits(0x7E00);
  EXPECT_TRUE(nan_a == nan_b);

  other = img;
  other.tcdm.words[5] ^= 1;
  EXPECT_FALSE(other == img);
  other = img;
  other.modules.dma.done_sparse.insert(9);
  EXPECT_FALSE(other == img);
  other = img;
  other.modules.hci.bank_rr.at(0) ^= 1;
  EXPECT_FALSE(other == img);
}

TEST(Snapshot, MidFlightSnapshotIsTypedBadConfig) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  Xoshiro256 rng(7);
  const auto x = workloads::random_matrix(32, 32, rng);
  const auto w = workloads::random_matrix(32, 32, rng);
  const uint32_t xa = drv.place_matrix(x);
  const uint32_t wa = drv.place_matrix(w);
  const uint32_t za = drv.alloc(32 * 32 * 2);
  auto& rm = cl.redmule();
  rm.reg_write(core::kRegXPtr, xa);
  rm.reg_write(core::kRegWPtr, wa);
  rm.reg_write(core::kRegZPtr, za);
  rm.reg_write(core::kRegM, 32);
  rm.reg_write(core::kRegN, 32);
  rm.reg_write(core::kRegK, 32);
  rm.reg_write(core::kRegFlags, 0);
  rm.reg_write(core::kRegTrigger, 0);
  for (int i = 0; i < 200; ++i) cl.step();
  ASSERT_TRUE(rm.busy());  // genuinely mid-job

  try {
    (void)state::snapshot(cl);
    FAIL() << "mid-flight snapshot must be refused";
  } catch (const api::TypedError& e) {
    EXPECT_EQ(e.code(), api::ErrorCode::kBadConfig);
  }
}

TEST(Snapshot, IncompatibleConfigRestoreIsTypedBadConfig) {
  Cluster small{ClusterConfig{}};
  const state::ClusterImage img = state::snapshot(small);

  // A differently sized L2, and an L2 that differs only in its timing.
  ClusterConfig big, slow;
  big.l2.size_bytes *= 2;
  slow.l2.access_latency += 1;
  for (const ClusterConfig& cfg : {big, slow}) {
    Cluster other(cfg);
    try {
      state::restore(other, img);
      ADD_FAILURE() << "config-incompatible restore must be refused";
    } catch (const api::TypedError& e) {
      EXPECT_EQ(e.code(), api::ErrorCode::kBadConfig);
    }
  }
}

TEST(Snapshot, ForkedTemplateLeavesTheImageUntouched) {
  // Stage a training template, snapshot it, fork it onto a second cluster,
  // and run the whole per-job half there: the image -- and the cluster it
  // was taken from -- must not change a bit (COW isolation), so any number
  // of further forks see the pristine template.
  workloads::AutoencoderConfig acfg;
  acfg.input_dim = 24;
  acfg.hidden = {12, 6, 12};
  acfg.batch = 2;
  Xoshiro256 rng(split_seed(32, 0));
  workloads::NetworkGraph net = workloads::NetworkGraph::autoencoder(acfg, rng);
  const auto x = workloads::random_matrix(net.input_dim(), acfg.batch, rng);

  Cluster donor{ClusterConfig{}};
  {
    RedmuleDriver drv(donor);
    NetworkRunner runner(donor, drv);
    runner.stage_training_template(net, acfg.batch);
  }
  const state::ClusterImage img = state::snapshot(donor);
  // A deep copy: its pages are private, so == compares their bytes.
  state::ClusterImage pristine = img;
  for (auto& page : pristine.l2.pages)
    if (page) page = std::make_shared<L2Memory::Page>(*page);

  Cluster forked{ClusterConfig{}};
  state::restore(forked, img);
  RedmuleDriver drv(forked);
  NetworkRunner runner(forked, drv);
  workloads::NetworkGraph net_run = net;  // lr != 0 updates the host weights
  const auto res = runner.training_step_staged(net_run, x, x, 0.01);
  EXPECT_GT(res.stats.total_cycles, 0u);

  EXPECT_TRUE(img == pristine) << "running a forked job must not mutate the shared image";
  EXPECT_TRUE(state::snapshot(donor) == pristine)
      << "the donor cluster must be untouched by work on its forks";
}
