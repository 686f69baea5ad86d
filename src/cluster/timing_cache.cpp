#include "cluster/timing_cache.hpp"

#include <initializer_list>
#include <iterator>

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

}  // namespace

ModuleState ModuleState::save(const Cluster& cl) {
  return ModuleState{cl.sim().save_state(), cl.hci().save_state(),
                     cl.dma().save_state(), cl.redmule().save_state()};
}

void ModuleState::restore(Cluster& cl) const {
  cl.sim().restore_state(sim);
  cl.hci().restore_state(hci);
  cl.dma().restore_state(dma);
  cl.redmule().restore_state(engine);
}

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

TimingCache* replay_cache(const Cluster& cl, bool job_pending, OperandBytes x,
                          OperandBytes w, OperandBytes z, const OperandBytes* y) {
  if (cl.timing_cache() == nullptr) return nullptr;
  const sim::RunControl* rc = cl.sim().run_control();
  if ((rc != nullptr && rc->faults_armed()) || cl.redmule().has_schedule_observer() ||
      !cl.sim().idle_skipping() || !cl.sim().quiescent() || job_pending)
    return nullptr;
  const auto overlaps = [](OperandBytes a, OperandBytes b) {
    return a.addr < b.addr + b.len && b.addr < a.addr + a.len;
  };
  if (overlaps(z, x) || overlaps(z, w)) return nullptr;
  if (y != nullptr && y->addr != z.addr && overlaps(z, *y)) return nullptr;
  return cl.timing_cache();
}

bool may_replay(const Cluster& cl, const TimingOutcome* rec) {
  const sim::RunControl* rc = cl.sim().run_control();
  return rec != nullptr && (rc == nullptr || rc->cycle_limit() > rec->post.sim.cycle);
}

const TimingOutcome* TimingCache::find(const TimingKey& key) {
  const uint64_t h = key.hash();
  const auto [first, last] = index_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (it->second->key == key) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return &it->second->outcome;
    }
  }
  return nullptr;
}

void TimingCache::insert(TimingKey key, TimingOutcome outcome) {
  ++counters_.misses;
  Entry e{std::move(key), std::move(outcome), 0, 0};
  e.hash = e.key.hash();
  e.bytes = entry_bytes(e);
  if (e.bytes > budget_bytes_) return;
  while (counters_.bytes + e.bytes > budget_bytes_) evict_lru();
  counters_.bytes += e.bytes;
  lru_.push_front(std::move(e));
  index_.emplace(lru_.front().hash, lru_.begin());
}

size_t TimingCache::entry_bytes(const Entry& e) {
  // The entry itself, its list and index nodes, and the heap behind the two
  // states' containers (an ordered-set node is about 48 bytes).
  constexpr size_t kNodeOverhead = 2 * sizeof(void*) + 4 * sizeof(void*);
  constexpr size_t kSetNodeBytes = 48;
  size_t bytes = sizeof(Entry) + kNodeOverhead;
  for (const ModuleState* s : {&e.key.pre, &e.outcome.post}) {
    bytes += s->hci.bank_rr.capacity() * sizeof(unsigned);
    bytes += s->dma.done_sparse.size() * kSetNodeBytes;
  }
  return bytes;
}

void TimingCache::evict_lru() {
  const Lru::iterator victim = std::prev(lru_.end());
  const auto [first, last] = index_.equal_range(victim->hash);
  for (auto it = first; it != last; ++it) {
    if (it->second == victim) {
      index_.erase(it);
      break;
    }
  }
  counters_.bytes -= victim->bytes;
  ++counters_.evictions;
  lru_.erase(victim);
}

}  // namespace redmule::cluster
