#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

double p50_ms(const std::vector<JobRecord>& recs) {
  std::vector<double> lat;
  for (const JobRecord& r : recs) lat.push_back(r.latency_ms());
  return percentile(lat, 50);
}

/// Runs fn(i) for i in [0, n) on \p threads threads and joins them all.
template <class Fn>
void parallel_for(size_t n, unsigned threads, Fn fn) {
  std::atomic<size_t> next{0};
  auto body = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(body);
  body();
  for (std::thread& t : pool) t.join();
}

}  // namespace

Fixture::Fixture(const WorkloadDef& def, const JobList& jobs) : def_(def) {
  api::ServiceConfig sc;
  sc.n_threads = def.workers;
  if (def.remote) {
    serve::ServerConfig cfg;
    cfg.address = "tcp:127.0.0.1:0";
    cfg.service = sc;
    server_ = std::make_unique<serve::Server>(cfg);
    server_->start();
    for (unsigned c = 0; c < def.clients; ++c)
      clients_.push_back(std::make_unique<serve::Client>(
          serve::ClientConfig{server_->address(), "perfbench", 0}));
  } else {
    service_ = std::make_unique<api::Service>(sc);
  }
  // One pass over the warm-up list constructs every config and publishes
  // every template the list needs. Workers keep private pools, and which
  // worker takes a job is not ours to choose, so with several workers the
  // others construct their copy on their first timed job: one construction
  // (about 10 us) per worker and config in a run. Warming every worker instead
  // took a random number of rounds and made a set-up's time bimodal.
  for (const std::string& spec : jobs.warmup())
    if (!run_one(0, spec, 0).ok) throw std::runtime_error("set-up job failed: " + first_error());
}

Fixture::~Fixture() {
  clients_.clear();
  if (server_) server_->stop();
}

api::ServiceStats Fixture::service_stats() const {
  return server_ ? server_->service().stats() : service_->stats();
}

serve::ServerStats Fixture::server_stats() {
  if (!server_) return {};
  (void)clients_.front()->stats();
  return server_->stats();
}

JobRecord Fixture::run_one(unsigned client, const std::string& spec, uint64_t idx) {
  JobRecord r;
  r.idx = idx;
  if (def_.remote) {
    serve::Client& cl = *clients_[client];
    r.t0_ns = now_ns();
    const serve::Client::Outcome out = cl.wait(cl.submit(spec));
    r.t1_ns = now_ns();
    r.ok = out.ok();
    if (!r.ok) note_error(spec + ": " + out.message);
    r.z_hash = out.result.z_hash;
    r.cycles = out.result.cycles;
    r.macs = out.result.macs;
    return r;
  }
  // The spec is parsed on the caller's side of submit(), outside the clock.
  const int64_t p0 = now_ns();
  std::unique_ptr<api::Workload> w = api::WorkloadRegistry::global().create(spec);
  r.t0_ns = now_ns();
  r.parse_ns = r.t0_ns - p0;
  const api::WorkloadResult res = service_->submit(std::move(w)).get();
  r.t1_ns = now_ns();
  r.ok = res.ok();
  if (!r.ok) note_error(spec + ": " + res.error.message);
  r.z_hash = res.z_hash;
  r.cycles = res.stats.cycles;
  r.macs = res.stats.macs;
  return r;
}

Timed Fixture::run(const JobList& jobs, uint64_t first, uint64_t count,
                   HostSpeed* speed) {
  Timed out;
  // Sized and touched before the clock starts, so the records' memory is the
  // same in every run of the same count.
  out.recs.resize(count);
  const int64_t give_up = now_ns() + static_cast<int64_t>(kGiveUpSeconds * 1e9);
  const uint64_t segment = speed != nullptr ? def_.block_jobs() : std::max<uint64_t>(count, 1);
  double ref_before = speed != nullptr ? speed->sample() : 0;
  for (uint64_t begin = 0; begin < count && now_ns() < give_up; begin += segment) {
    const uint64_t end = std::min(count, begin + segment);
    std::atomic<uint64_t> next{begin};
    parallel_for(def_.clients, def_.clients, [&](size_t c) {
      for (uint64_t n = next.fetch_add(1); n < end && now_ns() < give_up;
           n = next.fetch_add(1))
        out.recs[n] = run_one(static_cast<unsigned>(c), jobs.at(first + n), first + n);
    });
    double scale = 1;
    if (speed != nullptr) {
      const double ref_after = speed->sample();
      scale = HostSpeed::kNominalUs / (0.5 * (ref_before + ref_after));
      ref_before = ref_after;
    }
    int64_t lo = 0;
    int64_t hi = 0;
    for (uint64_t n = begin; n < end; ++n) {
      JobRecord& r = out.recs[n];
      if (r.t1_ns == 0) continue;
      r.scale = scale;
      lo = lo == 0 ? r.t0_ns : std::min(lo, r.t0_ns);
      hi = std::max(hi, r.t1_ns);
    }
    out.raw_s += static_cast<double>(hi - lo) / 1e9;
    out.scaled_s += static_cast<double>(hi - lo) / 1e9 * scale;
  }
  std::erase_if(out.recs, [](const JobRecord& r) { return r.t1_ns == 0; });
  return out;
}

void Fixture::note_error(const std::string& what) {
  const std::lock_guard<std::mutex> lock(error_m_);
  if (first_error_.empty()) first_error_ = what;
}

std::string Fixture::first_error() const {
  const std::lock_guard<std::mutex> lock(error_m_);
  return first_error_;
}

size_t verify(const JobList& jobs, std::vector<JobRecord>& recs) {
  const CpuScope any_cpu(0);  // oracles are not timed
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const auto key_of = [&](uint64_t idx) {
    return jobs.period() != 0 ? idx % jobs.period() : idx;
  };
  std::map<uint64_t, size_t> slot;
  std::vector<uint64_t> keys;
  for (const JobRecord& r : recs)
    if (slot.emplace(key_of(r.idx), keys.size()).second)
      keys.push_back(key_of(r.idx));

  struct Oracle {
    bool ok = false;
    uint64_t z_hash = 0;
    uint64_t cycles = 0;
  };
  std::vector<Oracle> oracle(keys.size());
  parallel_for(keys.size(), threads, [&](size_t i) {
    try {
      auto w = api::WorkloadRegistry::global().create(jobs.at(keys[i]));
      const api::WorkloadResult res = api::Service::run_one(*w, {}, false);
      oracle[i] = {res.ok(), res.z_hash, res.stats.cycles};
    } catch (const std::exception&) {
      oracle[i] = {};
    }
  });

  size_t failed = 0;
  for (JobRecord& r : recs) {
    const Oracle& o = oracle[slot.at(key_of(r.idx))];
    r.ok = r.ok && o.ok && o.z_hash == r.z_hash && o.cycles == r.cycles;
    if (!r.ok) ++failed;
  }
  return failed;
}

ServeProbe serve_probe(const JobList& jobs, unsigned clients, unsigned workers,
                       unsigned blocks, unsigned jobs_per_block) {
  WorkloadDef remote;
  remote.name = "probe_remote";
  remote.remote = true;
  remote.clients = clients;
  remote.workers = workers;
  WorkloadDef local = remote;
  local.name = "probe_service";
  local.remote = false;
  const CpuScope cpus(kTimedCpus);
  Fixture rf(remote, jobs);
  Fixture lf(local, jobs);
  const serve::ServerStats before = rf.server_stats();
  std::vector<JobRecord> rrecs;
  std::vector<JobRecord> lrecs;
  for (unsigned b = 0; b < blocks; ++b) {
    const uint64_t first = uint64_t{b} * jobs_per_block;
    // Alternate which side goes first so neither always follows the other.
    for (int side = 0; side < 2; ++side) {
      const bool do_remote = (side == 0) == (b % 2 == 0);
      auto recs = (do_remote ? rf : lf).run(jobs, first, jobs_per_block).recs;
      auto& into = do_remote ? rrecs : lrecs;
      into.insert(into.end(), std::make_move_iterator(recs.begin()),
                  std::make_move_iterator(recs.end()));
    }
  }
  const serve::ServerStats after = rf.server_stats();
  ServeProbe p;
  p.remote_p50_us = p50_ms(rrecs) * 1e3;
  p.service_p50_us = p50_ms(lrecs) * 1e3;
  p.overhead_p50_us = p.remote_p50_us - p.service_p50_us;
  p.frames_in = after.frames_in - before.frames_in;
  p.frames_out = after.frames_out - before.frames_out;
  p.protocol_errors = after.protocol_errors - before.protocol_errors;
  p.failed = verify(jobs, rrecs) + verify(jobs, lrecs);
  return p;
}

}  // namespace perfbench
