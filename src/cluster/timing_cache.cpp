#include "cluster/timing_cache.hpp"

#include <initializer_list>
#include <optional>

#include "core/golden.hpp"

namespace redmule::cluster {

namespace {

/// Bucket hash only: a match is always confirmed field by field.
struct Mix {
  uint64_t h = 0xcbf29ce484222325ULL;
  void add(uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  void add_all(std::initializer_list<uint64_t> vs) {
    for (const uint64_t v : vs) add(v);
  }
};

void mix_state(Mix& m, const ModuleState& s) {
  m.add_all({s.sim.cycle, s.sim.skipped_module_ticks, s.sim.fast_forwarded_cycles});
  for (const unsigned rr : s.hci.bank_rr) m.add(rr);
  m.add_all({s.hci.log_grants, s.hci.log_conflict_stalls, s.hci.shallow_grants,
             s.hci.shallow_stalls, s.hci.rotation_events});
  m.add_all({s.dma.next_id, s.dma.done_floor, s.dma.done_sparse.size(),
             s.dma.busy_cycles, s.dma.stall_cycles, s.dma.bytes_in,
             s.dma.bytes_out, s.dma.injected_stall_cycles});
  const core::JobStats& js = s.engine.last_stats;
  m.add_all({js.cycles, js.advance_cycles, js.stall_cycles, js.fma_ops,
             s.engine.streamer.issued_loads, s.engine.streamer.issued_stores,
             s.engine.streamer.retry_cycles, s.engine.streamer.idle_port_cycles});
}

/// The GEMM \p program computes, as one job over its padded operands: a
/// monolithic job is its own; a tiled program's operands are in L2.
core::Job gemm_of(const GemmProgram& program) {
  const TiledProgram* t = std::get_if<TiledProgram>(&program);
  if (t == nullptr) return std::get<core::Job>(program);
  const StagedGemm& a = t->addrs;
  return {a.x_addr, a.w_addr, a.z_addr, a.y_addr, t->plan.m, t->plan.n, t->plan.k, t->plan.has_y};
}

/// The bypass rules of run_gemm_program() that do not depend on a record.
bool replayable(const Cluster& cl, bool job_pending, const core::Job& g) {
  const sim::RunControl* rc = cl.sim().run_control();
  if ((rc != nullptr && rc->faults_armed()) || cl.redmule().has_schedule_observer() ||
      !cl.sim().idle_skipping() || !cl.sim().quiescent() || job_pending)
    return false;
  const uint64_t z_len = 2ull * g.m * g.k;
  const auto overlaps_z = [&](uint32_t addr, uint64_t len) {
    return g.z_ptr < addr + len && addr < g.z_ptr + z_len;
  };
  if (overlaps_z(g.x_ptr, 2ull * g.m * g.n) || overlaps_z(g.w_ptr, 2ull * g.n * g.k))
    return false;
  return !g.accumulate || g.y_ptr == g.z_ptr || !overlaps_z(g.y_ptr, z_len);
}

/// Z = [Y +] X * W from the golden model over the operands of \p g in L2
/// (\p in_l2) or in the TCDM, written over Z. Every operand is read before
/// Z is written: Y may be Z's own region.
ReplayedGemm replay_z(Cluster& cl, const core::Job& g, bool in_l2) {
  const auto read = [&](uint32_t addr, uint32_t rows, uint32_t cols) {
    MatrixF16 mat(rows, cols);
    const auto len = static_cast<uint32_t>(mat.size_bytes());
    in_l2 ? cl.l2().read(addr, mat.data(), len) : cl.tcdm().backdoor_read(addr, mat.data(), len);
    return mat;
  };
  ReplayedGemm r{read(g.x_ptr, g.m, g.n), read(g.w_ptr, g.n, g.k), {}};
  std::optional<MatrixF16> y;
  if (g.accumulate) y = read(g.y_ptr, g.m, g.k);
  r.z = core::golden_gemm_padded(r.x, r.w, cl.config().geometry, y ? &*y : nullptr);
  const auto len = static_cast<uint32_t>(r.z.size_bytes());
  in_l2 ? cl.l2().write(g.z_ptr, r.z.data(), len) : cl.tcdm().backdoor_write(g.z_ptr, r.z.data(), len);
  return r;
}

}  // namespace

uint64_t TimingKey::hash() const {
  Mix m;
  m.add_all({config.geometry.h, config.geometry.l, config.geometry.p,
             config.tcdm.n_banks, config.tcdm.words_per_bank, config.l2.size_bytes});
  m.add(program.index());
  if (const TiledProgram* t = std::get_if<TiledProgram>(&program)) {
    const StagedGemm& a = t->addrs;
    const workloads::TiledGemmPlan& p = t->plan;
    m.add_all({a.x_addr, a.w_addr, a.z_addr, a.y_addr});
    m.add_all({p.m, p.n, p.k, p.tile_m, p.tile_n, p.tile_k, p.has_y ? 1u : 0u,
               t->double_buffer ? 1u : 0u, t->alloc_mark});
  } else {
    const core::Job& j = std::get<core::Job>(program);
    m.add_all({j.x_ptr, j.w_ptr, j.z_ptr, j.y_ptr, j.m, j.n, j.k,
               j.accumulate ? 1u : 0u});
  }
  mix_state(m, pre);
  return m.h;
}

TiledGemmStats run_gemm_program(Cluster& cl, bool job_pending, const GemmProgram& program,
                                CallableRef<TiledGemmStats()> model,
                                CallableRef<void(const ReplayedGemm&)> replay_writes) {
  TimingCache* cache = cl.timing_cache();
  const core::Job g = gemm_of(program);
  if (cache == nullptr || !replayable(cl, job_pending, g)) return model();
  TimingKey key{cl.config(), ModuleState::save(cl), program};
  const std::shared_ptr<const TimingOutcome> rec = cache->find(key);
  const sim::RunControl* rc = cl.sim().run_control();
  if (rec != nullptr && (rc == nullptr || rc->cycle_limit() > rec->post.sim.cycle)) {
    cl.sim().checkpoint();
    const bool tiled = std::holds_alternative<TiledProgram>(program);
    ++cache->counters_.hits;
    cache->counters_.replayed_cycles +=
        tiled ? rec->stats.total_cycles : rec->post.engine.last_stats.cycles;
    replay_writes(replay_z(cl, g, tiled));
    rec->post.restore(cl);
    cl.sim().checkpoint();
    return rec->stats;
  }
  const TiledGemmStats stats = model();
  // A cluster still draining after the run is not capturable.
  if (rec == nullptr && cl.sim().quiescent())
    cache->insert(std::move(key), TimingOutcome{ModuleState::save(cl), stats});
  return stats;
}

void TimingCache::insert(TimingKey key, TimingOutcome outcome) {
  ++counters_.misses;
  // The outcome's allocation (with its shared_ptr control block) and the
  // heap behind the two states' containers (an ordered-set node is about 48
  // bytes). The key itself is part of the entry the LRU charges.
  constexpr size_t kSetNodeBytes = 48;
  size_t bytes = sizeof(TimingOutcome) + 2 * sizeof(void*);
  for (const ModuleState* s : {&key.pre, &outcome.post}) {
    bytes += s->hci.bank_rr.capacity() * sizeof(unsigned);
    bytes += s->dma.done_sparse.size() * kSetNodeBytes;
  }
  lru_.insert(std::move(key), std::make_shared<const TimingOutcome>(std::move(outcome)), bytes);
}

}  // namespace redmule::cluster
