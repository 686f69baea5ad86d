/// The traced run: host time attributed to the src/ modules.
///
///  1. Rounds of blocks, the same jobs in each block of a round and the order
///     of the blocks rotating from round to round, so that drift in host speed
///     hits every kind alike:
///       - the workload's own traffic on a fresh set-up (the round trip);
///       - for a remote workload, the same jobs through a pooled, warm
///         in-process Service with the same clients and workers;
///       - a replay of the jobs through the public calls the service path
///         makes for each (spec decode, WorkloadRegistry::create,
///         ClusterPool::acquire or acquire_template, Workload::run or
///         run_staged, result encode), one span per call;
///       - the same replay untraced, for the tracing overhead.
///     The replay's self times plus the measured remainders (see attribute())
///     split the round trip into layers; pool, template and simulator counters
///     of the replay are exact.
///  2. Probes time the calls the replay does not isolate: cluster
///     construction, staging, snapshot and fork of a template, a network's
///     forward pass and training step, FP16 FMAs, the codec, remote versus
///     in-process round trips and the Service's dispatch.
#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "common/rng.hpp"
#include "fp16/float16.hpp"
#include "perfbench.hpp"
#include "serve/frame.hpp"
#include "state/snapshot.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

namespace perfbench {

namespace {

/// A remainder of the attribution may read below zero by this share of the
/// round trip (measurement noise between blocks) before the run fails.
constexpr double kClosureTolerance = 0.05;

const char* const kLayers[] = {"perfbench", "serve", "workloads",
                               "api",       "state", "cluster"};

double us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

template <class Fn>
double time_us(Fn fn) {
  const int64_t t0 = now_ns();
  fn();
  return us(now_ns() - t0);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

serve::Frame parse_frame(const std::vector<uint8_t>& bytes) {
  serve::FrameBuffer fb;
  fb.feed(bytes.data(), bytes.size());
  return *fb.next();
}

/// Both directions of the wire format for one job: the SUBMIT the client
/// encodes and the server decodes, and the RESULT going back.
uint64_t codec_round(const std::string& spec, uint64_t tag,
                     const api::WorkloadResult& res) {
  serve::SubmitMsg sm;
  sm.tag = tag;
  sm.spec = spec;
  const serve::SubmitMsg got =
      serve::decode_submit(parse_frame(serve::frame_of(serve::MsgType::kSubmit, sm)));
  serve::ResultMsg rm;
  rm.tag = got.tag;
  rm.cycles = res.stats.cycles;
  rm.macs = res.stats.macs;
  rm.z_hash = res.z_hash;
  return serve::decode_result(
             parse_frame(serve::frame_of(serve::MsgType::kResult, rm)))
      .z_hash;
}

/// Calls the public functions a job passes through on the service path
/// directly, on the calling thread, with a private pool and template cache
/// warmed like a Fixture's.
class Replayer {
 public:
  Replayer(const WorkloadDef& def, const JobList& jobs) : remote_(def.remote) {
    pool_.set_template_cache(&cache_);
    Tracer off(false);
    for (const std::string& spec : jobs.warmup()) (void)run(spec, 0, off);
    counting_ = true;
  }

  /// One job; t0/t1 of the record bracket the whole replay of it.
  JobRecord run(const std::string& wire, uint64_t idx, Tracer& tr) {
    JobRecord rec;
    rec.idx = idx;
    api::WorkloadResult res;
    rec.t0_ns = now_ns();
    {
      ScopedSpan root(tr, "job", "perfbench", idx);
      std::string spec = wire;
      if (remote_) {
        ScopedSpan s(tr, "decode_submit", "serve", idx);
        serve::SubmitMsg sm;
        sm.tag = idx + 1;
        sm.spec = wire;
        spec = serve::decode_submit(
                   parse_frame(serve::frame_of(serve::MsgType::kSubmit, sm)))
                   .spec;
      }
      std::unique_ptr<api::Workload> w;
      {
        ScopedSpan s(tr, "WorkloadRegistry::create", "workloads", idx);
        w = api::WorkloadRegistry::global().create(spec);
      }
      cluster::ClusterConfig cfg;
      {
        ScopedSpan s(tr, "resolve_cluster_config", "api", idx);
        cfg = api::resolve_cluster_config({}, w->requirements());
      }
      const std::string key = w->warm_by_default() ? w->template_key() : "";
      api::ClusterPool::Acquired acq;
      if (!key.empty()) {
        ScopedSpan s(tr, "ClusterPool::acquire_template", "state", idx);
        acq = pool_.acquire_template(cfg, key, [&](cluster::Cluster& cl) {
          ScopedSpan st(tr, "Workload::stage_template", "cluster", idx);
          w->stage_template(cl);
        });
      } else {
        ScopedSpan s(tr, "ClusterPool::acquire", "api", idx);
        acq = pool_.acquire(cfg);
      }
      api::RunContext ctx;
      {
        ScopedSpan s(tr, key.empty() ? "Workload::run" : "Workload::run_staged",
                     "cluster", idx);
        res = key.empty() ? w->run(*acq.cl, ctx) : w->run_staged(*acq.cl, ctx);
      }
      if (counting_) {
        const cluster::Cluster& cl = *acq.cl;
        sim_cycles += cl.sim().cycle();
        fast_forwarded += cl.sim().fast_forwarded_cycles();
        skipped_ticks += cl.sim().skipped_module_ticks();
        l2_resident += cl.l2().resident_bytes();
        cycles += res.stats.cycles;
        stall += res.stats.stall_cycles;
        ++replayed;
      }
      if (remote_) {
        ScopedSpan s(tr, "encode_result", "serve", idx);
        rec.z_hash = codec_round(wire, idx + 1, res);
      } else {
        rec.z_hash = res.z_hash;
      }
    }
    rec.t1_ns = now_ns();
    rec.ok = res.ok();
    rec.cycles = res.stats.cycles;
    rec.macs = res.stats.macs;
    return rec;
  }

  const api::ClusterPool& pool() const { return pool_; }
  const api::TemplateCache& cache() const { return cache_; }

  /// Simulator and job counters over the replayed jobs (not the warm-up).
  uint64_t sim_cycles = 0, fast_forwarded = 0, skipped_ticks = 0, l2_resident = 0,
           cycles = 0, stall = 0, replayed = 0;

 private:
  bool remote_;
  bool counting_ = false;
  api::TemplateCache cache_;  // outlives the pool that points at it
  api::ClusterPool pool_;
};

double sum_ns(const std::vector<JobRecord>& recs) {
  double s = 0;
  for (const JobRecord& r : recs) s += static_cast<double>(r.spec_to_result_ns());
  return s;
}

}  // namespace

std::vector<Metric> traced_run(const WorkloadDef& def, const JobList& jobs,
                               uint64_t seed, double seconds,
                               const std::string& span_path, Tally& tally) {
  const CpuScope cpus(kTimedCpus);
  std::vector<Metric> m;
  const auto add = [&](const char* name, const char* unit, double v) {
    m.push_back({name, unit, v});
  };
  const auto check = [&](std::vector<JobRecord>& recs) {
    tally.attempted += recs.size();
    tally.failed += verify(jobs, recs);
  };

  // 1. Attribution. Block kinds: the workload's own traffic, in-process
  // traffic (remote workloads only), traced replay, untraced replay. About
  // half of the run's seconds go here, 100 ms per block.
  Tracer tr(true);
  Tracer off(false);
  std::vector<JobRecord> round_trip, in_process, replayed, plain;
  Replayer traced_rp(def, jobs);
  {
    WorkloadDef local = def;
    local.remote = false;
    Fixture own(def, jobs);
    std::unique_ptr<Fixture> service;
    if (def.remote) service = std::make_unique<Fixture>(local, jobs);
    Replayer plain_rp(def, jobs);
    const unsigned kinds = def.remote ? 4 : 3;
    const uint64_t block = def.block_jobs();
    const auto rounds = std::max<uint64_t>(4, static_cast<uint64_t>(0.5 * seconds / (0.1 * kinds)));
    const auto append = [](std::vector<JobRecord>& into, std::vector<JobRecord> recs) {
      into.insert(into.end(), std::make_move_iterator(recs.begin()),
                  std::make_move_iterator(recs.end()));
    };
    for (uint64_t r = 0; r < rounds; ++r) {
      const uint64_t first = r * block;
      for (unsigned k = 0; k < kinds; ++k) {
        // Kinds in the order 0..kinds-1, rotated by one each round; kind 3 is
        // the in-process traffic, absent for in-process workloads.
        switch ((r + k) % kinds) {
          case 0: append(round_trip, own.run(jobs, first, block).recs); break;
          case 1:
            for (uint64_t i = first; i < first + block; ++i)
              replayed.push_back(traced_rp.run(jobs.at(i), i, tr));
            break;
          case 2:
            for (uint64_t i = first; i < first + block; ++i)
              plain.push_back(plain_rp.run(jobs.at(i), i, off));
            break;
          default: append(in_process, service->run(jobs, first, block).recs); break;
        }
      }
    }
  }
  for (auto* recs : {&round_trip, &in_process, &replayed, &plain}) check(*recs);
  if (round_trip.size() != replayed.size() || plain.size() != replayed.size() ||
      (def.remote && in_process.size() != replayed.size()))
    tally.fail("an attribution block gave up before its last job");

  const std::vector<Span>& spans = tr.spans();
  const std::vector<int64_t> self = self_times_ns(spans);
  LayerTimes lt;
  lt.round_trip_ns = sum_ns(round_trip);
  lt.in_process_ns = def.remote ? sum_ns(in_process) : lt.round_trip_ns;
  for (const char* layer : kLayers) lt.replay_self_ns[layer] = 0;
  std::vector<double> create_us, run_us;
  double run_total_us = 0;
  for (size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    lt.replay_self_ns[s.layer] += static_cast<double>(self[k]);
    const std::string name = s.name;
    const double d = us(s.end_ns - s.start_ns);
    if (name == "WorkloadRegistry::create") create_us.push_back(d);
    if (name == "Workload::run" || name == "Workload::run_staged") {
      run_us.push_back(d);
      run_total_us += d;
    }
  }
  Attribution at = attribute(lt, kClosureTolerance);
  const double n = static_cast<double>(std::max<size_t>(round_trip.size(), 1));
  if (!at.closes)
    tally.fail("the replayed calls do not fit in the measured round trip: remainders per job "
               "api " + std::to_string(at.api_rest_ns / n / 1e3) + " us, serve " +
               std::to_string(at.serve_rest_ns / n / 1e3) + " us");
  for (const char* layer : kLayers)
    m.push_back({std::string(layer) + ".self_share", "ratio", at.share[layer]});
  add("trace.round_trip_us", "us", lt.round_trip_ns / n / 1e3);
  {
    // Job k of both replays is the same job, so their difference is the
    // tracer's cost plus noise; the median of the differences drops the noise.
    std::vector<double> extra_us;
    for (size_t k = 0; k < std::min(replayed.size(), plain.size()); ++k)
      extra_us.push_back((replayed[k].latency_ms() - plain[k].latency_ms()) * 1e3);
    add("trace.overhead_p50_us", "us", median(extra_us));
  }

  add("workloads.create_us", "us", median(create_us));
  add("cluster.run_us", "us", median(run_us));
  add("sim.run_cycles_per_host_s", "cycles/s",
      ratio(static_cast<double>(traced_rp.cycles), run_total_us / 1e6));
  {
    const api::ClusterPool& pool = traced_rp.pool();
    const auto jobs_run = static_cast<double>(pool.jobs_run());
    const auto built = static_cast<double>(pool.size());
    const auto forks = static_cast<double>(pool.template_forks());
    add("api.clusters_constructed", "count", built);
    add("api.cluster_reuse_ratio", "ratio", ratio(jobs_run - built, jobs_run));
    add("api.template_fork_ratio", "ratio",
        ratio(forks, forks + static_cast<double>(pool.template_misses())));
    add("api.template_cache_entries", "count", static_cast<double>(traced_rp.cache().size()));
  }
  const auto share = [](uint64_t num, uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  add("sim.fast_forwarded_share", "ratio", share(traced_rp.fast_forwarded, traced_rp.sim_cycles));
  add("sim.skipped_ticks_per_cycle", "ratio", share(traced_rp.skipped_ticks, traced_rp.sim_cycles));
  add("core.stall_share", "ratio", share(traced_rp.stall, traced_rp.cycles));
  add("mem.l2_resident_kib", "KiB",
      static_cast<double>(traced_rp.l2_resident) / 1024.0 /
          static_cast<double>(std::max<uint64_t>(traced_rp.replayed, 1)));

  // 2. Probes. Construction and warm-pool acquires (a reset) once per
  // distinct config of the list, five times each.
  {
    std::vector<cluster::ClusterConfig> configs;
    std::set<uint64_t> seen;
    for (const std::string& spec : jobs.warmup()) {
      const auto w = api::WorkloadRegistry::global().create(spec);
      const cluster::ClusterConfig cfg = api::resolve_cluster_config({}, w->requirements());
      if (seen.insert(api::pool_key(cfg)).second) configs.push_back(cfg);
    }
    std::vector<double> construct, reset;
    for (const cluster::ClusterConfig& cfg : configs) {
      api::ClusterPool pool;
      for (int rep = 0; rep < 5; ++rep) {
        std::unique_ptr<cluster::Cluster> cl;
        construct.push_back(time_us([&] { cl = std::make_unique<cluster::Cluster>(cfg); }));
        if (rep == 0) (void)pool.acquire(cfg);
        reset.push_back(time_us([&] { (void)pool.acquire(cfg); }));
      }
    }
    add("cluster.construct_us", "us", median(construct));
    add("api.pool_acquire_us", "us", median(reset));
  }

  // The network probe: staging, snapshot, fork, forward and training step of
  // one template-capable network, checked against its own cold oracle.
  {
    const auto w = api::WorkloadRegistry::global().create(jobs.network_probe());
    auto& nw = dynamic_cast<api::NetworkTrainingWorkload&>(*w);
    const api::NetworkTrainingSpec& spec = nw.spec();
    const cluster::ClusterConfig cfg =
        api::resolve_cluster_config({}, nw.requirements());
    cluster::Cluster cl(cfg);
    std::vector<double> stage, snap;
    state::ClusterImage img;
    for (int rep = 0; rep < 5; ++rep) {
      cl.reset();
      stage.push_back(time_us([&] { nw.stage_template(cl); }));
      state::ClusterImage fresh;
      snap.push_back(time_us([&] { fresh = state::snapshot(cl); }));
      img = std::move(fresh);
    }
    add("cluster.stage_template_us", "us", median(stage));
    add("state.snapshot_us", "us", median(snap));
    add("state.image_kib", "KiB", static_cast<double>(img.l2.resident_bytes()) / 1024.0);

    api::ClusterPool pool;
    const auto stage_fn = [&](cluster::Cluster& c) { nw.stage_template(c); };
    pool.acquire_template(cfg, nw.template_key(), stage_fn);
    std::vector<double> fork;
    for (int rep = 0; rep < 21; ++rep)
      fork.push_back(time_us([&] { pool.acquire_template(cfg, nw.template_key(), stage_fn); }));
    add("state.fork_us", "us", median(fork));

    const auto graph_and_input = [&] {
      Xoshiro256 rng(spec.seed);
      auto net = workloads::NetworkGraph::autoencoder(spec.net, rng);
      Xoshiro256 input_rng(spec.input_seed);
      auto x = workloads::random_matrix(net.input_dim(), spec.net.batch,
                                        spec.input_seed == 0 ? rng : input_rng);
      return std::make_pair(std::move(net), std::move(x));
    };
    std::vector<double> fwd, step;
    cluster::NetworkStats stats;
    uint64_t probe_hash = 0;
    for (int rep = 0; rep < 3; ++rep) {
      auto [net, x] = graph_and_input();
      cl.reset();
      {
        cluster::RedmuleDriver drv(cl);
        cluster::NetworkRunner runner(cl, drv);
        fwd.push_back(time_us([&] { (void)runner.forward(net, x); }) / 1e3);
      }
      api::ClusterPool::Acquired acq =
          pool.acquire_template(cfg, nw.template_key(), stage_fn);
      cluster::RedmuleDriver drv(*acq.cl);
      cluster::NetworkRunner runner(*acq.cl, drv);
      cluster::NetworkRunner::TrainingResult r;
      step.push_back(
          time_us([&] { r = runner.training_step_staged(net, x, x, spec.lr); }) / 1e3);
      stats = r.stats;
      probe_hash = api::hash_matrix(r.out);
      for (const auto& dw : r.dw) probe_hash = api::hash_fold(probe_hash, dw);
    }
    const api::WorkloadResult oracle = api::Service::run_one(*w, {}, false);
    if (!oracle.ok() || oracle.z_hash != probe_hash)
      tally.fail("network probe does not reproduce its workload's cold result");
    add("cluster.forward_ms", "ms", median(fwd));
    add("cluster.train_step_ms", "ms", median(step));
    using Phase = workloads::AeGemm::Phase;
    add("cluster.fwd_cycles", "cycles", static_cast<double>(stats.phase_cycles(Phase::kForward)));
    add("cluster.dx_cycles", "cycles", static_cast<double>(stats.phase_cycles(Phase::kGradInput)));
    add("cluster.dw_cycles", "cycles", static_cast<double>(stats.phase_cycles(Phase::kGradWeight)));
    uint64_t wait = 0, total = 0, bytes = 0;
    for (const cluster::NetworkGemmStats& g : stats.gemms) {
      wait += g.tiled.dma_wait_cycles;
      total += g.tiled.total_cycles;
      bytes += g.tiled.dma_bytes_in + g.tiled.dma_bytes_out;
    }
    add("mem.dma_wait_share", "ratio", ratio(static_cast<double>(wait), static_cast<double>(total)));
    add("mem.dma_bytes", "bytes", static_cast<double>(bytes));
  }

  // FP16 FMA over a seeded stream of operands.
  {
    Xoshiro256 rng(seed);
    std::vector<fp16::Float16> a, b, c;
    for (int i = 0; i < (1 << 16); ++i) {
      a.push_back(fp16::Float16::from_double(rng.next_double(-2.0, 2.0)));
      b.push_back(fp16::Float16::from_double(rng.next_double(-2.0, 2.0)));
      c.push_back(fp16::Float16::from_double(rng.next_double(-2.0, 2.0)));
    }
    std::vector<double> ns;
    uint32_t sink = 0;
    for (int rep = 0; rep < 15; ++rep) {
      const double t = time_us([&] {
        for (size_t i = 0; i < a.size(); ++i)
          sink += fp16::Float16::fma(a[i], b[i], c[i]).bits();
      });
      ns.push_back(t * 1e3 / static_cast<double>(a.size()));
    }
    if (sink == 0xFFFFFFFFu) tally.fail("unreachable");  // keeps the loop live
    add("fp16.fma_ns", "ns", median(ns));
  }

  // The codec on this workload's own messages.
  {
    std::vector<std::string> specs;
    for (uint64_t i = 0; i < def.fixed_jobs; ++i) specs.push_back(jobs.at(i));
    api::WorkloadResult res;
    std::vector<double> ns;
    uint64_t sink = 0;
    for (int rep = 0; rep < 15; ++rep) {
      const double t = time_us([&] {
        for (size_t i = 0; i < specs.size(); ++i) sink += codec_round(specs[i], i + 1, res);
      });
      ns.push_back(t * 1e3 / static_cast<double>(specs.size()));
    }
    (void)sink;
    add("serve.codec_ns", "ns", median(ns));
  }

  // Remote against in-process round trips on the serve_small_gemm menu.
  const JobList menu(*find_workload("serve_small_gemm"), seed);
  {
    const unsigned clients = def.remote ? def.clients : 1;
    const unsigned workers = def.remote ? def.workers : 1;
    const ServeProbe p = serve_probe(menu, clients, workers, 6, 256);
    tally.attempted += 6 * 256 * 2;
    tally.failed += p.failed;
    add("serve.overhead_p50_us", "us", p.overhead_p50_us);
    add("serve.frames_in", "count", static_cast<double>(p.frames_in));
    add("serve.frames_out", "count", static_cast<double>(p.frames_out));
    add("serve.protocol_errors", "count", static_cast<double>(p.protocol_errors));
    if (p.overhead_p50_us < 0)
      tally.fail("remote round trip measured faster than the in-process one");
  }

  // The service's dispatch cost on the same menu: Service round trips with
  // one job in flight against ClusterPool::acquire + Workload::run on this
  // thread, in blocks ordered S D D S S D D S.
  {
    api::ServiceConfig sc;
    sc.n_threads = 1;
    api::Service service(sc);
    api::ClusterPool pool;
    std::vector<double> via_service, direct;
    for (uint64_t b = 0; b < 8; ++b)
      for (uint64_t i = b * 256; i < (b + 1) * 256; ++i) {
        std::unique_ptr<api::Workload> w = api::WorkloadRegistry::global().create(menu.at(i));
        if (b % 4 == 0 || b % 4 == 3) {
          via_service.push_back(time_us([&] { (void)service.submit(std::move(w)).get(); }));
        } else {
          const cluster::ClusterConfig cfg = api::resolve_cluster_config({}, w->requirements());
          api::RunContext ctx;
          direct.push_back(time_us([&] { (void)w->run(*pool.acquire(cfg).cl, ctx); }));
        }
      }
    add("api.dispatch_p50_us", "us", percentile(via_service, 50) - percentile(direct, 50));
  }

  if (!span_path.empty()) {
    std::ofstream out(span_path);
    out << "# job parent layer name start_ns end_ns\n";
    tr.write(out);
  }
  std::sort(m.begin(), m.end(),
            [](const Metric& x, const Metric& y) { return x.name < y.name; });
  return m;
}

}  // namespace perfbench
