#include "cluster/tiled_gemm_runner.hpp"

#include <array>
#include <optional>
#include <vector>

#include "cluster/timing_cache.hpp"

namespace redmule::cluster {

namespace {

using workloads::TiledGemmPlan;

/// One tile job of the schedule, with ragged edge tiles resolved.
struct Step {
  uint32_t r0, c0, n0;  ///< element offsets in Z rows / Z cols / reduction
  uint32_t tm, tk, tn;  ///< tile extents (edge tiles may be ragged)
  uint32_t ot;          ///< output-tile index (Z slot owner)
  bool first_n, last_n; ///< position in the reduction chain of this Z tile
};

std::vector<Step> make_schedule(const TiledGemmPlan& p) {
  std::vector<Step> steps;
  steps.reserve(p.steps());
  for (uint32_t mi = 0; mi < p.m_tiles(); ++mi) {
    for (uint32_t ki = 0; ki < p.k_tiles(); ++ki) {
      for (uint32_t ni = 0; ni < p.n_tiles(); ++ni) {
        Step s;
        s.r0 = mi * p.tile_m;
        s.c0 = ki * p.tile_k;
        s.n0 = ni * p.tile_n;
        s.tm = std::min(p.tile_m, p.m - s.r0);
        s.tk = std::min(p.tile_k, p.k - s.c0);
        s.tn = std::min(p.tile_n, p.n - s.n0);
        s.ot = mi * p.k_tiles() + ki;
        s.first_n = ni == 0;
        s.last_n = ni == p.n_tiles() - 1;
        steps.push_back(s);
      }
    }
  }
  return steps;
}

/// TCDM tile buffers of one run_staged() call (ping/pong where streamed).
struct TileBuffers {
  std::array<uint32_t, 2> xb{}, wb{}, zb{};
};

/// True when the byte ranges [a, a + a_len) and [b, b + b_len) intersect.
bool overlaps(uint32_t a, uint64_t a_len, uint32_t b, uint64_t b_len) {
  return a < b + b_len && b < a + a_len;
}

}  // namespace

TiledGemmRunner::TiledGemmRunner(Cluster& cluster, RedmuleDriver& driver,
                                 TiledGemmOptions opts)
    : cl_(cluster), drv_(driver), opts_(opts) {}

TiledGemmRunner::Result TiledGemmRunner::run(const MatrixF16& x, const MatrixF16& w,
                                             const MatrixF16* y) {
  REDMULE_REQUIRE(x.cols() == w.rows(), "GEMM shape mismatch");
  const uint32_t np = static_cast<uint32_t>(round_up(x.cols(), size_t{2}));
  const uint32_t kp = static_cast<uint32_t>(round_up(w.cols(), size_t{2}));
  const TiledGemmPlan plan = workloads::plan_tiled_gemm(
      static_cast<uint32_t>(x.rows()), np, kp, y != nullptr, drv_.bytes_free(),
      cl_.config().geometry);
  return run_planned(x, w, y, plan);
}

TiledGemmRunner::Result TiledGemmRunner::run_planned(const MatrixF16& x,
                                                     const MatrixF16& w,
                                                     const MatrixF16* y,
                                                     const TiledGemmPlan& plan) {
  REDMULE_REQUIRE(x.cols() == w.rows(), "GEMM shape mismatch");
  if (y != nullptr)
    REDMULE_REQUIRE(y->rows() == x.rows() && y->cols() == w.cols(),
                    "Y shape mismatch");
  const uint32_t m = static_cast<uint32_t>(x.rows());
  const uint32_t np = static_cast<uint32_t>(round_up(x.cols(), size_t{2}));
  const uint32_t kp = static_cast<uint32_t>(round_up(w.cols(), size_t{2}));
  REDMULE_REQUIRE(plan.m == m && plan.n == np && plan.k == kp,
                  "plan does not match the (padded) operands");
  REDMULE_REQUIRE(plan.has_y == (y != nullptr), "plan/Y operand mismatch");

  // --- Stage the (padded) operands in L2 -----------------------------------
  auto& l2 = cl_.l2();
  StagedGemm addrs;
  addrs.x_addr = l2.config().base_addr;
  addrs.w_addr = addrs.x_addr + m * np * 2;
  addrs.z_addr = addrs.w_addr + np * kp * 2;
  addrs.y_addr = addrs.z_addr + m * kp * 2;
  if (plan.staged_l2_bytes() > l2.config().size_bytes)
    throw CapacityError("L2 too small for the staged tiled-GEMM operands (" +
                        std::to_string(plan.staged_l2_bytes()) + " bytes needed, " +
                        std::to_string(l2.config().size_bytes) + " available)");
  {
    const auto xs = pad_to(x, m, np);
    const auto ws = pad_to(w, np, kp);
    l2.write(addrs.x_addr, xs.data(), static_cast<uint32_t>(xs.size_bytes()));
    l2.write(addrs.w_addr, ws.data(), static_cast<uint32_t>(ws.size_bytes()));
    if (y != nullptr) {
      const auto ys = pad_to(*y, m, kp);
      l2.write(addrs.y_addr, ys.data(), static_cast<uint32_t>(ys.size_bytes()));
    }
  }

  // --- Run the tile grid, then read the (unpadded) result back from L2 -----
  Result res;
  res.plan = plan;
  res.stats = run_staged(addrs, plan);
  // The staged grid computes the padded problem; report the useful MACs.
  res.stats.macs = static_cast<uint64_t>(x.rows()) * x.cols() * w.cols();
  res.z = core::MatrixF16(x.rows(), w.cols());
  for (size_t r = 0; r < res.z.rows(); ++r)
    l2.read(addrs.z_addr + static_cast<uint32_t>(r) * kp * 2, &res.z(r, 0),
            static_cast<uint32_t>(w.cols()) * 2);
  return res;
}

namespace {

/// The cycle model: drains the tile grid through the DMA/engine pipeline.
TiledGemmStats run_model(Cluster& cl, RedmuleDriver& drv, bool double_buffer,
                         const StagedGemm& addrs, const TiledGemmPlan& plan,
                         const std::vector<Step>& steps, const TileBuffers& buf) {
  const uint32_t np = plan.n, kp = plan.k;
  const uint32_t l2_x = addrs.x_addr, l2_w = addrs.w_addr;
  const uint32_t l2_z = addrs.z_addr, l2_y = addrs.y_addr;
  const auto& [xb, wb, zb] = buf;
  auto& dma = cl.dma();
  TiledGemmStats stats;
  stats.steps = static_cast<uint32_t>(steps.size());
  // stats.macs stays 0: only the caller knows the unpadded useful extents
  // (run_planned and the network executor both fill it in).
  const uint64_t cycle0 = cl.cycle();
  const uint64_t bytes_in0 = dma.bytes_in();
  const uint64_t bytes_out0 = dma.bytes_out();

  auto xslot = [&](size_t idx) { return idx % plan.x_buffers(); };
  auto wslot = [&](size_t idx) { return idx % plan.w_buffers(); };
  auto zslot = [&](uint32_t ot) { return ot % plan.z_buffers(); };

  auto submit_x = [&](const Step& s, size_t slot) {
    return dma.submit({l2_x + (s.r0 * np + s.n0) * 2, xb[slot], s.tn * 2,
                       mem::DmaDirection::kL2ToTcdm, s.tm, np * 2, 0});
  };
  auto submit_w = [&](const Step& s, size_t slot) {
    return dma.submit({l2_w + (s.n0 * kp + s.c0) * 2, wb[slot], s.tk * 2,
                       mem::DmaDirection::kL2ToTcdm, s.tn, kp * 2, 0});
  };
  auto submit_y = [&](const Step& s, size_t slot) {
    return dma.submit({l2_y + (s.r0 * kp + s.c0) * 2, zb[slot], s.tk * 2,
                       mem::DmaDirection::kL2ToTcdm, s.tm, kp * 2, 0});
  };
  auto submit_z_out = [&](const Step& s, size_t slot) {
    return dma.submit({l2_z + (s.r0 * kp + s.c0) * 2, zb[slot], s.tk * 2,
                       mem::DmaDirection::kTcdmToL2, s.tm, kp * 2, 0});
  };

  auto wait_id = [&](uint64_t id) {
    const uint64_t before = cl.cycle();
    const bool ok = cl.run_until([&] { return dma.done(id); }, 100'000'000ull);
    if (!ok) throw TimeoutError("tiled-GEMM DMA transfer timed out");
    stats.dma_wait_cycles += cl.cycle() - before;
  };
  auto wait_ids = [&](const std::vector<uint64_t>& ids) {
    for (const uint64_t id : ids) wait_id(id);
  };
  std::array<std::optional<uint64_t>, 2> z_out_pending{};
  auto wait_z_slot = [&](size_t slot) {
    if (z_out_pending[slot].has_value()) {
      wait_id(*z_out_pending[slot]);
      z_out_pending[slot].reset();
    }
  };

  auto make_job = [&](const Step& s, size_t idx) {
    core::Job job;
    job.x_ptr = xb[xslot(idx)];
    job.w_ptr = wb[wslot(idx)];
    job.z_ptr = zb[zslot(s.ot)];
    job.y_ptr = zb[zslot(s.ot)];  // in-place reduction chaining (see header)
    job.m = s.tm;
    job.n = s.tn;
    job.k = s.tk;
    job.accumulate = !s.first_n || plan.has_y;
    return job;
  };
  auto track = [&](const core::JobStats& js) {
    stats.compute_cycles += js.cycles;
    stats.advance_cycles += js.advance_cycles;
    stats.stall_cycles += js.stall_cycles;
    stats.fma_ops += js.fma_ops;
  };

  // A resident W (single buffer) is streamed exactly once, up front.
  if (plan.w_buffers() == 1) wait_id(submit_w(steps.front(), 0));

  if (!double_buffer) {
    // Serial reference: every transfer completes before the next stage runs.
    for (size_t idx = 0; idx < steps.size(); ++idx) {
      const Step& s = steps[idx];
      cl.sim().checkpoint();  // per-tile deadline/cancel poll point
      wait_id(submit_x(s, xslot(idx)));
      if (plan.w_buffers() > 1) wait_id(submit_w(s, wslot(idx)));
      if (s.first_n && plan.has_y) wait_id(submit_y(s, zslot(s.ot)));
      drv.start_job(make_job(s, idx));
      track(drv.wait_job());
      if (s.last_n) wait_id(submit_z_out(s, zslot(s.ot)));
    }
  } else {
    // Software pipeline: loads for step idx+1 and the store of the previous
    // output tile stream while step idx computes.
    auto submit_loads = [&](size_t idx) {
      const Step& s = steps[idx];
      std::vector<uint64_t> ids;
      ids.push_back(submit_x(s, xslot(idx)));
      if (plan.w_buffers() > 1) ids.push_back(submit_w(s, wslot(idx)));
      if (s.first_n && plan.has_y) {
        // The Z slot must have drained its previous tile's store before the
        // Y preload overwrites it (DMA channels run concurrently, so this
        // ordering cannot be left to queue order).
        wait_z_slot(zslot(s.ot));
        ids.push_back(submit_y(s, zslot(s.ot)));
      }
      return ids;
    };

    std::vector<uint64_t> pending = submit_loads(0);
    for (size_t idx = 0; idx < steps.size(); ++idx) {
      const Step& s = steps[idx];
      cl.sim().checkpoint();  // per-tile deadline/cancel poll point
      wait_ids(pending);
      pending.clear();
      // First write into a Z slot: the previous tile using it must be fully
      // stored (already guaranteed when a Y preload synced above).
      if (s.first_n) wait_z_slot(zslot(s.ot));
      drv.start_job(make_job(s, idx));
      if (idx + 1 < steps.size()) pending = submit_loads(idx + 1);
      track(drv.wait_job());
      if (s.last_n) z_out_pending[zslot(s.ot)] = submit_z_out(s, zslot(s.ot));
    }
    wait_z_slot(0);
    wait_z_slot(1);
  }

  stats.total_cycles = cl.cycle() - cycle0;
  stats.dma_bytes_in = dma.bytes_in() - bytes_in0;
  stats.dma_bytes_out = dma.bytes_out() - bytes_out0;
  return stats;
}

/// A timing-cache hit: the recorded outcome of the cycle model, with Z from
/// the golden model and the TCDM tile buffers rewritten to the bytes the
/// DMA and the engine leave there.
TiledGemmStats replay(Cluster& cl, const StagedGemm& addrs,
                      const TiledGemmPlan& plan, const std::vector<Step>& steps,
                      const TileBuffers& buf, const TimingOutcome& rec) {
  cl.sim().checkpoint();
  auto& l2 = cl.l2();
  const auto read_l2 = [&](uint32_t addr, uint32_t rows, uint32_t cols) {
    MatrixF16 mat(rows, cols);
    l2.read(addr, mat.data(), static_cast<uint32_t>(mat.size_bytes()));
    return mat;
  };
  // Every operand is read before Z is written: Y may be Z's own region.
  const MatrixF16 x = read_l2(addrs.x_addr, plan.m, plan.n);
  const MatrixF16 w = read_l2(addrs.w_addr, plan.n, plan.k);
  std::optional<MatrixF16> y;
  if (plan.has_y) y = read_l2(addrs.y_addr, plan.m, plan.k);
  const MatrixF16 z = core::golden_gemm_padded(x, w, cl.config().geometry,
                                               y ? &*y : nullptr);
  l2.write(addrs.z_addr, z.data(), static_cast<uint32_t>(z.size_bytes()));

  // The schedule's tile writes, in order, leave each buffer holding its last
  // tile. A Z slot's Y preload and partial sums cover exactly the region its
  // final Z tile overwrites, so only the final tiles are written.
  auto& tcdm = cl.tcdm();
  const auto put = [&](const MatrixF16& src, uint32_t r0, uint32_t c0,
                       uint32_t rows, uint32_t cols, uint32_t dst) {
    for (uint32_t r = 0; r < rows; ++r)
      tcdm.backdoor_write(dst + r * cols * 2, &src(r0 + r, c0), cols * 2);
  };
  if (plan.w_buffers() == 1) {
    const Step& s = steps.front();
    put(w, s.n0, s.c0, s.tn, s.tk, buf.wb[0]);
  }
  for (size_t idx = 0; idx < steps.size(); ++idx) {
    const Step& s = steps[idx];
    put(x, s.r0, s.n0, s.tm, s.tn, buf.xb[idx % plan.x_buffers()]);
    if (plan.w_buffers() > 1)
      put(w, s.n0, s.c0, s.tn, s.tk, buf.wb[idx % plan.w_buffers()]);
    if (s.last_n) put(z, s.r0, s.c0, s.tm, s.tk, buf.zb[s.ot % plan.z_buffers()]);
  }
  rec.post.restore(cl);
  cl.sim().checkpoint();
  return rec.stats;
}

}  // namespace

TiledGemmStats TiledGemmRunner::run_staged(const StagedGemm& addrs,
                                           const TiledGemmPlan& plan) {
  plan.validate();
  // The bit-exactness contract: a tiled reduction must cut at a multiple of
  // the array width H, or the engine pads each cut to H mid-chain with
  // fma(0,0,acc) steps that can flip a -0 accumulator to +0.
  REDMULE_REQUIRE(plan.n_tiles() == 1 ||
                      plan.tile_n % cl_.config().geometry.h == 0,
                  "tile_n must be a multiple of the array width H when the "
                  "reduction is tiled (bit-exactness contract)");
  auto& l2 = cl_.l2();
  const uint32_t m = plan.m, np = plan.n, kp = plan.k;
  REDMULE_REQUIRE(l2.contains(addrs.x_addr, m * np * 2) &&
                      l2.contains(addrs.w_addr, np * kp * 2) &&
                      l2.contains(addrs.z_addr, m * kp * 2) &&
                      (!plan.has_y || l2.contains(addrs.y_addr, m * kp * 2)),
                  "staged tiled-GEMM operand region outside L2");

  // --- TCDM tile buffers ----------------------------------------------------
  // Released via free_to() on the way out: once Z has been read back from
  // L2 the buffers are dead, and a later run() should replan from the full
  // budget (on a thrown exception the cluster needs a reset anyway).
  const uint32_t alloc_mark = drv_.alloc_mark();
  TileBuffers buf;
  for (unsigned i = 0; i < plan.x_buffers(); ++i) buf.xb[i] = drv_.alloc(plan.x_buf_bytes());
  for (unsigned i = 0; i < plan.w_buffers(); ++i) buf.wb[i] = drv_.alloc(plan.w_buf_bytes());
  for (unsigned i = 0; i < plan.z_buffers(); ++i) buf.zb[i] = drv_.alloc(plan.z_buf_bytes());
  const std::vector<Step> steps = make_schedule(plan);

  TiledGemmStats stats;
  TimingCache* cache = replayable(addrs, plan) ? cl_.timing_cache() : nullptr;
  if (cache == nullptr) {
    stats = run_model(cl_, drv_, opts_.double_buffer, addrs, plan, steps, buf);
  } else {
    TimingKey key{cl_.config(), addrs,      plan, opts_.double_buffer,
                  alloc_mark,   ModuleState::save(cl_)};
    const TimingOutcome* rec = cache->find(key);
    // An armed cycle budget that ends inside the recorded run must abort on
    // the model's cycle with the model's error, so the model runs it.
    const sim::RunControl* rc = cl_.sim().run_control();
    if (rec != nullptr && (rc == nullptr || rc->cycle_limit() > rec->post.sim.cycle)) {
      cache->count_hit();
      stats = replay(cl_, addrs, plan, steps, buf, *rec);
    } else {
      stats = run_model(cl_, drv_, opts_.double_buffer, addrs, plan, steps, buf);
      if (rec == nullptr && cl_.sim().quiescent())
        cache->insert(std::move(key), TimingOutcome{ModuleState::save(cl_), stats});
    }
  }
  drv_.free_to(alloc_mark);
  return stats;
}

bool TiledGemmRunner::replayable(const StagedGemm& addrs,
                                 const TiledGemmPlan& plan) const {
  if (cl_.timing_cache() == nullptr) return false;
  // Fault events act on the model's cycles; an observer wants its schedule;
  // with idle skipping off the cores tick, and their state is not recorded.
  const sim::RunControl* rc = cl_.sim().run_control();
  if ((rc != nullptr && rc->faults_armed()) || cl_.redmule().has_schedule_observer() ||
      !cl_.sim().idle_skipping() || !cl_.sim().quiescent() || drv_.job_pending())
    return false;
  // The replay reads every operand from L2 at entry, which is what the DMA
  // reads only when no Z store can land on X, W or a Y tile read later.
  const uint64_t z_len = 2ull * plan.m * plan.k;
  if (overlaps(addrs.z_addr, z_len, addrs.x_addr, 2ull * plan.m * plan.n) ||
      overlaps(addrs.z_addr, z_len, addrs.w_addr, 2ull * plan.n * plan.k))
    return false;
  return !plan.has_y || addrs.y_addr == addrs.z_addr ||
         !overlaps(addrs.z_addr, z_len, addrs.y_addr, z_len);
}

}  // namespace redmule::cluster
