/// Aggregate-throughput benchmark of batched execution through the async
/// api::Service (api/service.hpp): how many simulated cycles / MACs / jobs
/// per host second the simulator sustains when a queue of independent
/// RedMulE jobs is drained by a pool of worker threads with pooled,
/// reset()-reused cluster instances.
///
/// Three job mixes are swept across thread counts 1..max(4, hw_concurrency):
///  - uniform:        identical default-geometry GEMMs (homogeneous traffic);
///  - mixed_geometry: assorted H/L/P accelerator geometries and shapes (the
///    multi-tenant case: every user simulates a different configuration);
///  - short_long:     ~200x MAC spread between jobs (worst case for static
///    partitioning).
///
/// A fourth sweep drives a mixed-workload queue instantiated from registry
/// spec strings (monolithic gemm + tiled + network training steps,
/// interleaved priorities) -- the multi-scenario case the polymorphic
/// api::Workload surface exists for.
///
/// Every sweep validates the determinism guarantee: per-job simulated cycle
/// counts, stall/advance splits, FMA-op counts, and Z-output hashes must be
/// bit-identical across all thread counts and against the serial
/// Service::run_one reference; any mismatch is a fatal error (nonzero
/// exit), not a statistic.
///
/// The 1-thread runs additionally quantify reset-vs-reconstruct: the same
/// batch run one job after another through Service::run_one, which builds a
/// fresh module hierarchy per job and attaches no timing cache.
///
/// Pooled clusters replay a repeated GEMM program from their timing cache
/// (cluster/timing_cache.hpp) instead of simulating it, and every timed
/// batch repeats its warmup batch's jobs. So each point also reports its
/// replayed share: the fraction of its simulated cycles that came from a
/// replay rather than the cycle model (ServiceStats::replayed_cycles).
///
/// Usage: bench_throughput [--smoke] [--out <path>] [--max-threads N] [--reps N]
///   --smoke        tiny problems, threads {1,2} (CI rot check, not a
///                  measurement)
///   --out          JSON output path (default: BENCH_batch.json in the CWD;
///                  run from the repo root to refresh the committed file)
///   --max-threads  top of the thread sweep (default max(4, hw_concurrency))
///   --reps         batch repetitions of each mix's base job set
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "workloads/gemm.hpp"

using namespace redmule;
using namespace redmule::bench;

namespace {

constexpr uint64_t kBatchSeed = 42;

struct Mix {
  std::string name;
  std::vector<std::string> specs;
};

std::string gemm_spec(const workloads::GemmShape& s, const core::Geometry& g,
                      bool acc = false, bool tiled = false) {
  std::string spec = std::string(tiled ? "tiled" : "gemm") +
                     ":m=" + std::to_string(s.m) + ",n=" + std::to_string(s.n) +
                     ",k=" + std::to_string(s.k) +
                     ",geom=" + std::to_string(g.h) + "x" + std::to_string(g.l) +
                     "x" + std::to_string(g.p);
  if (acc) spec += ",acc=1";
  return spec;
}

/// Repeats the base spec set \p reps times and assigns every job its own
/// deterministic RNG stream from the batch seed.
std::vector<std::string> replicate(const std::vector<std::string>& base,
                                   unsigned reps, uint64_t seed_root) {
  std::vector<std::string> specs;
  specs.reserve(base.size() * reps);
  for (unsigned r = 0; r < reps; ++r)
    for (const std::string& s : base) {
      specs.push_back(s + ",seed=" +
                      std::to_string(split_seed(seed_root, specs.size())));
    }
  return specs;
}

std::vector<Mix> make_mixes(bool smoke, unsigned reps) {
  const core::Geometry kDefault{4, 8, 3};
  std::vector<Mix> mixes;

  {  // Homogeneous traffic: one geometry, one shape.
    const uint32_t s = smoke ? 16 : 64;
    const std::vector<std::string> base = {
        gemm_spec({"", s, s, s}, kDefault)};
    mixes.push_back(
        {"uniform", replicate(base, smoke ? 2 : 48 * reps, kBatchSeed)});
  }

  {  // Short-job traffic: per-job overhead (programming, reset) dominates,
     // so this is where pooled-cluster reuse pays the most.
    const uint32_t s = smoke ? 8 : 16;
    const std::vector<std::string> base = {
        gemm_spec({"", s, s, s}, kDefault)};
    mixes.push_back(
        {"short_uniform", replicate(base, smoke ? 2 : 384 * reps, kBatchSeed)});
  }

  {  // Multi-tenant traffic: every job a different geometry/shape pair.
    const std::vector<std::pair<core::Geometry, workloads::GemmShape>> pairs = {
        {{4, 8, 3}, {"", 64, 64, 64}}, {{2, 4, 3}, {"", 32, 48, 32}},
        {{8, 8, 3}, {"", 48, 64, 48}}, {{4, 4, 3}, {"", 33, 31, 17}},
        {{4, 8, 3}, {"", 24, 20, 40}}, {{2, 4, 3}, {"", 16, 16, 16}},
        {{8, 8, 3}, {"", 72, 24, 56}}, {{4, 8, 3}, {"", 17, 33, 31}},
    };
    std::vector<std::string> base;
    for (const auto& [g, s] : pairs) {
      const workloads::GemmShape shape =
          smoke ? workloads::GemmShape{"", 12, 12, 12} : s;
      base.push_back(gemm_spec(shape, g,
                               /*acc=*/base.size() % 4 == 3));  // keep Y hot
    }
    mixes.push_back(
        {"mixed_geometry", replicate(base, smoke ? 1 : 12 * reps, kBatchSeed)});
  }

  {  // Short-vs-long mix on the default geometry.
    std::vector<std::string> base;
    for (const workloads::GemmShape& s : workloads::short_long_sweep())
      base.push_back(gemm_spec(
          smoke ? workloads::GemmShape{"", 8, 8, 8} : s, kDefault));
    mixes.push_back(
        {"short_long", replicate(base, smoke ? 1 : 9 * reps, kBatchSeed)});
  }
  return mixes;
}

/// The registry-driven mixed-workload traffic: monolithic GEMMs, tiled L2
/// pipelines, and whole network training steps interleaved in ONE queue.
std::vector<std::string> registry_mix(bool smoke, unsigned reps) {
  std::vector<std::string> protos;
  const auto add_gemm = [&](uint32_t m, uint32_t n, uint32_t k, bool acc,
                            bool tiled) {
    protos.push_back(gemm_spec({"", m, n, k}, {4, 8, 3}, acc, tiled));
  };
  const auto add_network = [&](uint32_t in, const std::string& hidden,
                               uint32_t batch) {
    protos.push_back("network:in=" + std::to_string(in) + ",hidden=" + hidden +
                     ",batch=" + std::to_string(batch) + ",geom=4x8x3");
  };
  if (smoke) {
    add_gemm(12, 12, 12, false, false);
    add_gemm(10, 8, 12, true, false);
    add_gemm(24, 24, 24, false, true);
    add_network(16, "8-4-8", 1);
  } else {
    add_gemm(48, 48, 48, false, false);
    add_gemm(32, 32, 32, true, false);
    add_gemm(96, 96, 96, false, true);
    add_gemm(64, 48, 64, false, false);
    add_network(64, "32-8-32", 2);
    add_network(48, "24-24", 4);
  }
  std::vector<std::string> out;
  const unsigned total_reps = smoke ? 1 : 4 * reps;
  for (unsigned r = 0; r < total_reps; ++r)
    for (const std::string& p : protos)
      out.push_back(p + ",seed=" +
                    std::to_string(split_seed(kBatchSeed + 1, out.size())));
  return out;
}

/// Fingerprint of one job outcome; everything that must be thread-invariant.
struct Outcome {
  uint64_t cycles, advance, stall, fma_ops, z_hash;
  bool ok;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const api::WorkloadResult& r) {
  return {r.stats.cycles, r.stats.advance_cycles, r.stats.stall_cycles,
          r.stats.fma_ops, r.z_hash, r.ok()};
}

/// Aggregate figures of one timed batch (was sim::BatchStats before the
/// BatchRunner shim was removed).
struct BatchTiming {
  double wall_s = 0.0;
  uint64_t jobs_ok = 0;
  uint64_t jobs_failed = 0;
  uint64_t sim_cycles = 0;
  uint64_t macs = 0;
  uint64_t cluster_reuses = 0;
  uint64_t replayed_cycles = 0;  ///< the share of sim_cycles replayed

  double replayed_share() const {
    return sim_cycles > 0 ? static_cast<double>(replayed_cycles) / sim_cycles : 0;
  }
  double cycles_per_sec() const { return wall_s > 0 ? sim_cycles / wall_s : 0; }
  double macs_per_sec() const { return wall_s > 0 ? macs / wall_s : 0; }
  double jobs_per_sec() const { return wall_s > 0 ? jobs_ok / wall_s : 0; }
};

struct SweepPoint {
  unsigned threads;
  BatchTiming stats;
};

std::vector<Outcome> serial_reference(const std::vector<std::string>& specs) {
  std::vector<Outcome> reference;
  reference.reserve(specs.size());
  for (const std::string& s : specs) {
    auto w = api::WorkloadRegistry::global().create(s);
    reference.push_back(outcome_of(api::Service::run_one(*w)));
  }
  return reference;
}

/// Wall seconds to run the spec set one job after another through
/// Service::run_one: the unpooled baseline.
double run_one_wall(const std::vector<std::string>& specs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& s : specs) {
    auto w = api::WorkloadRegistry::global().create(s);
    (void)api::Service::run_one(*w, {}, false);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Submits the whole spec set, waits for every result, and (optionally)
/// validates each against the serial reference. Priorities interleave three
/// service classes to exercise the priority queue.
BatchTiming run_batch(api::Service& service, const std::vector<std::string>& specs,
                      const std::vector<Outcome>* reference, unsigned threads,
                      const std::string& mix_name, bool* all_deterministic) {
  const api::ServiceStats before = service.stats();
  std::vector<api::JobHandle> handles;
  handles.reserve(specs.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < specs.size(); ++i) {
    api::SubmitOptions opts;
    opts.priority = static_cast<int>(i % 3) - 1;
    handles.push_back(
        service.submit(api::WorkloadRegistry::global().create(specs[i]), opts));
  }
  BatchTiming st;
  for (size_t i = 0; i < handles.size(); ++i) {
    const api::WorkloadResult r = handles[i].get();
    if (r.ok()) {
      ++st.jobs_ok;
      st.sim_cycles += r.stats.cycles;
      st.macs += r.stats.macs;
    } else {
      ++st.jobs_failed;
    }
    if (reference && !(outcome_of(r) == (*reference)[i])) {
      std::fprintf(stderr,
                   "FATAL: job %zu of mix %s diverged at %u threads (cycles "
                   "%" PRIu64 " vs %" PRIu64 ", z_hash %016" PRIx64
                   " vs %016" PRIx64 ", ok=%d)\n",
                   i, mix_name.c_str(), threads, r.stats.cycles,
                   (*reference)[i].cycles, r.z_hash, (*reference)[i].z_hash,
                   r.ok() ? 1 : 0);
      *all_deterministic = false;
    }
  }
  st.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const api::ServiceStats after = service.stats();
  st.cluster_reuses = after.cluster_reuses - before.cluster_reuses;
  st.replayed_cycles = after.replayed_cycles - before.replayed_cycles;
  if (reference && st.jobs_failed != 0) {
    std::fprintf(stderr, "FATAL: %" PRIu64 " job(s) of mix %s failed\n",
                 st.jobs_failed, mix_name.c_str());
    *all_deterministic = false;
  }
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_batch.json";
  unsigned max_threads = 0;
  unsigned reps = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--max-threads") == 0 && i + 1 < argc)
      max_threads = static_cast<unsigned>(std::clamp(std::atoi(argv[++i]), 0, 256));
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = static_cast<unsigned>(std::clamp(std::atoi(argv[++i]), 1, 1024));
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (max_threads == 0) max_threads = smoke ? 2 : std::max(4u, hw);

  print_header("Batched multi-cluster throughput (host-side performance)",
               "independent jobs scale across api::Service worker threads with "
               "pooled, reset()-reused clusters; per-job results stay "
               "bit-identical");
  std::printf("host hardware_concurrency: %u, sweeping 1..%u threads\n\n", hw,
              max_threads);

  // Thread sweep: 1, 2, 4, ... up to max_threads (always including it).
  std::vector<unsigned> sweep{1};
  for (unsigned t = 2; t < max_threads; t *= 2) sweep.push_back(t);
  if (max_threads > 1) sweep.push_back(max_threads);

  JsonBenchWriter json("batch_throughput");
  json.add("smoke", smoke ? 1 : 0, "bool");
  json.add("host.hardware_concurrency", hw, "threads");

  bool all_deterministic = true;
  TablePrinter table({"Mix", "Jobs", "Threads", "Wall s", "SimCycles/s", "SimMACs/s",
                      "Jobs/s", "Speedup", "Efficiency", "Replayed"});

  std::vector<Mix> mixes = make_mixes(smoke, reps);
  mixes.push_back({"mixed_workload", registry_mix(smoke, reps)});

  for (const Mix& mix : mixes) {
    const std::string& mn = mix.name;
    json.add(mn + ".jobs", static_cast<double>(mix.specs.size()), "jobs");

    // Serial reference outcomes (fresh cluster per job, no pool): the ground
    // truth every sweep point must reproduce bit-identically.
    const std::vector<Outcome> reference = serial_reference(mix.specs);

    // Best-of-N timed batches after a warmup batch: host-scheduler noise on
    // shared machines easily exceeds the effects being measured, and the
    // fastest repetition is the least-perturbed one.
    const int timed_reps = smoke ? 1 : 3;

    // Reset-vs-reconstruct at 1 thread: the same batch through run_one, best
    // of timed_reps after a warmup pass.
    (void)run_one_wall(mix.specs);
    double no_reuse_wall = 0.0;
    for (int r = 0; r < timed_reps; ++r) {
      const double wall = run_one_wall(mix.specs);
      if (r == 0 || wall < no_reuse_wall) no_reuse_wall = wall;
    }

    std::vector<SweepPoint> points;
    for (const unsigned t : sweep) {
      api::ServiceConfig cfg;
      cfg.n_threads = t;
      api::Service service(cfg);
      // Warmup batch: workers build their pools. Every timed repetition is
      // validated against the serial reference -- a divergence in a slower
      // (discarded-for-timing) batch must fail the bench just the same.
      (void)run_batch(service, mix.specs, nullptr, t, mn, &all_deterministic);
      BatchTiming best;
      for (int r = 0; r < timed_reps; ++r) {
        const BatchTiming st =
            run_batch(service, mix.specs, &reference, t, mn, &all_deterministic);
        if (r == 0 || st.wall_s < best.wall_s) best = st;
      }
      points.push_back({t, best});
    }

    const double base_cps = points.front().stats.cycles_per_sec();
    json.add(mn + ".t1.reset_vs_reconstruct_speedup",
             points.front().stats.wall_s > 0
                 ? no_reuse_wall / points.front().stats.wall_s
                 : 0.0,
             "x");
    for (const SweepPoint& p : points) {
      const std::string prefix = mn + ".t" + std::to_string(p.threads);
      const double speedup = base_cps > 0 ? p.stats.cycles_per_sec() / base_cps : 0.0;
      json.add(prefix + ".cycles_per_sec", p.stats.cycles_per_sec(), "cycle/s");
      json.add(prefix + ".macs_per_sec", p.stats.macs_per_sec(), "MAC/s");
      json.add(prefix + ".jobs_per_sec", p.stats.jobs_per_sec(), "job/s");
      json.add(prefix + ".speedup_vs_t1", speedup, "x");
      json.add(prefix + ".efficiency", speedup / p.threads, "frac");
      json.add(prefix + ".cluster_reuses", static_cast<double>(p.stats.cluster_reuses),
               "jobs");
      json.add(prefix + ".replayed_share", p.stats.replayed_share(), "frac");
      table.add_row({mn, TablePrinter::fmt_int(mix.specs.size()),
                     TablePrinter::fmt_int(p.threads), TablePrinter::fmt(p.stats.wall_s, 3),
                     TablePrinter::fmt(p.stats.cycles_per_sec(), 0),
                     TablePrinter::fmt(p.stats.macs_per_sec(), 0),
                     TablePrinter::fmt(p.stats.jobs_per_sec(), 1),
                     TablePrinter::fmt(speedup, 2),
                     TablePrinter::fmt(speedup / p.threads, 2),
                     TablePrinter::fmt(p.stats.replayed_share(), 2)});
    }
  }

  json.add("determinism_ok", all_deterministic ? 1 : 0, "bool");
  table.print(stdout, smoke ? "smoke run (not a measurement)"
                            : "per-point: warmup batch + measured batch");

  if (!all_deterministic) {
    std::fprintf(stderr,
                 "FATAL: batched execution is not bit-identical to serial "
                 "execution; see mismatches above\n");
    return 1;
  }
  std::printf("\nall per-job outcomes bit-identical across thread counts "
              "and vs the serial reference\n");
  return json.write(out_path) ? 0 : 1;
}
