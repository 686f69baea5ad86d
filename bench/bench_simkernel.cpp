/// Measures the *simulator itself*: simulated-cycles/sec and simulated
/// MACs/sec of the cycle-accurate kernel, across the geometry sweep used for
/// Table I / the geometry ablation. This is the perf trajectory every future
/// PR defends -- the north-star is a simulator that runs as fast as the host
/// allows, and this bench is its measured artifact.
///
/// Three kernels are reported for the default geometry:
///  - fast:      the shipping kernel (idle skipping + the FMA fast paths: the
///    native AVX512-FP16 lane where the host has it, else the binary64 lane;
///    `fp16.native_lane` records which);
///  - reference: the same binary with both runtime toggles off, i.e. the
///    soft-float FMA core and the tick-everything loop (the bit-exact
///    reference configuration the fast kernel is cross-checked against);
///  - pre-opt:   the recorded throughput of the pre-optimization kernel
///    (per-cycle heap allocations in engine/datapath/HCI, no idle protocol,
///    soft-float-only FMA), measured on the same host when the fast-path
///    kernel PR was made. Recorded constants, not re-measured: that kernel
///    no longer exists in the tree.
///
/// Simulated cycle counts are identical across all three by construction
/// (tests/sim/test_idle_skip.cpp, tests/fp16/test_hw_crosscheck.cpp); only
/// host wall time differs.
///
/// Usage: bench_simkernel [--smoke] [--out <path>]
///   --smoke  tiny problem + single jobs (CI rot check, not a measurement)
///   --out    JSON output path (default: BENCH_simkernel.json in the CWD;
///            run from the repo root to refresh the committed file)
#include <chrono>
#include <cstring>

#include "bench_util.hpp"
#include "sim/run_control.hpp"
#include "sim/simulator.hpp"

using namespace redmule;
using namespace redmule::bench;

namespace {

/// Pre-optimization kernel throughput on the default geometry 64^3 GEMM,
/// measured with exactly this bench's methodology (aggregate >= 1.5 s window
/// of back-to-back jobs after warmup, Release, interleaved with fast-kernel
/// runs on the same host; see README.md "Performance notes"). Recorded when
/// the fast-path kernel PR landed so the speedup claim stays auditable: that
/// kernel (per-cycle heap allocation, tick-everything loop, soft-float-only
/// FMA) no longer exists in the tree.
constexpr double kPreOptCyclesPerSec = 511446.0;
constexpr double kPreOptMacsPerSec = 16284768.0;
constexpr double kPreOptCyclesPerJob = 8233.0;  // identical simulated cycles

struct KernelRun {
  core::JobStats job_stats;  ///< per-job counters (identical every job)
  uint64_t agg_cycles = 0;   ///< simulated cycles over the whole window
  uint64_t agg_macs = 0;
  double wall_s = 0.0;

  double cycles_per_sec() const { return agg_cycles / wall_s; }
  double macs_per_sec() const { return agg_macs / wall_s; }
};

/// Runs the GEMM back-to-back in one cluster for at least \p min_window_s of
/// wall time (always >= 1 job) and reports aggregate simulated throughput.
/// Long windows make the numbers robust against host scheduler noise;
/// cluster construction and matrix setup stay outside the timed region.
KernelRun run_timed(const core::Geometry& g, const workloads::GemmShape& s,
                    bool fast_kernel, double min_window_s,
                    bool armed_checkpoints = false) {
  fp16::set_fast_fma_enabled(fast_kernel);
  cluster::Cluster cl(gemm_cluster_config(s, g));
  cl.sim().set_idle_skipping(fast_kernel);
  // Armed-but-inert RunControl: the deadline is unreachable, so every
  // checkpoint polls and returns. This prices the robustness layer's worst
  // case -- jobs with a deadline/cancel flag -- against the default path,
  // whose entire cost is one null test per kCheckpointInterval cycles.
  sim::RunControl rc;
  if (armed_checkpoints) {
    rc.set_cycle_limit(1ull << 60);
    cl.install_run_control(&rc);
  }
  cluster::RedmuleDriver drv(cl);
  Xoshiro256 rng(1);
  const auto x = workloads::random_matrix(s.m, s.n, rng);
  const auto w = workloads::random_matrix(s.n, s.k, rng);
  const uint32_t xa = drv.place_matrix(x);
  const uint32_t wa = drv.place_matrix(w);
  const uint32_t za = drv.alloc(s.m * s.k * 2);
  drv.run_gemm(xa, wa, za, s.m, s.n, s.k);  // warmup

  KernelRun run;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    run.job_stats = drv.run_gemm(xa, wa, za, s.m, s.n, s.k);
    run.agg_cycles += run.job_stats.cycles;
    run.agg_macs += run.job_stats.macs;
    run.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  } while (run.wall_s < min_window_s);
  fp16::set_fast_fma_enabled(true);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_simkernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  print_header("Simulation-kernel throughput (host-side performance)",
               "the simulator itself is a measured artifact: cycles/sec and "
               "MACs/sec per geometry, fast kernel vs reference kernel");

  const double window_s = smoke ? 0.0 : 1.5;       // default geometry
  const double window_side_s = smoke ? 0.0 : 0.4;  // ablation geometries
  const workloads::GemmShape shape = smoke
                                         ? workloads::GemmShape{"16x16x16", 16, 16, 16}
                                         : workloads::GemmShape{"64x64x64", 64, 64, 64};

  JsonBenchWriter json("simkernel");
  json.add("smoke", smoke ? 1 : 0, "bool");
  // Which FMA lane the fast kernel ran on: 1 = the host's AVX512-FP16 units,
  // 0 = the portable binary64 lane. Informational; the bits are the same.
  json.add("fp16.native_lane", fp16::detail::native_lane() ? 1 : 0, "bool");
  std::printf("fast-kernel FMA lane: %s\n",
              fp16::detail::native_lane() ? "native AVX512-FP16" : "binary64");

  // Geometry sweep: the taped-out default first, then the ablation corners.
  struct Geo {
    const char* name;
    core::Geometry g;
  };
  const Geo geos[] = {
      {"H4_L8_P3_default", {4, 8, 3}},
      {"H2_L4_P3", {2, 4, 3}},
      {"H4_L4_P3", {4, 4, 3}},
      {"H8_L8_P3", {8, 8, 3}},
      {"H4_L16_P3", {4, 16, 3}},
  };

  TablePrinter t({"Geometry", "Kernel", "SimCycles/job", "Jobs", "SimCycles/s",
                  "SimMACs/s"});
  for (const Geo& geo : geos) {
    if (geo.g.j_slots() > 32) continue;  // cycle-model limit (see engine.hpp)
    const bool is_default = geo.g.h == 4 && geo.g.l == 8 && geo.g.p == 3;
    const KernelRun fast =
        run_timed(geo.g, shape, /*fast_kernel=*/true, is_default ? window_s : window_side_s);
    const uint64_t jobs = fast.agg_cycles / fast.job_stats.cycles;
    t.add_row({geo.name, "fast", TablePrinter::fmt_int(fast.job_stats.cycles),
               TablePrinter::fmt_int(jobs), TablePrinter::fmt(fast.cycles_per_sec(), 0),
               TablePrinter::fmt(fast.macs_per_sec(), 0)});
    const std::string prefix = std::string("fast.") + geo.name;
    json.add(prefix + ".sim_cycles_per_job", static_cast<double>(fast.job_stats.cycles),
             "cycle");
    json.add(prefix + ".cycles_per_sec", fast.cycles_per_sec(), "cycle/s");
    json.add(prefix + ".macs_per_sec", fast.macs_per_sec(), "MAC/s");

    if (is_default) {
      // Reference kernel on the default geometry: runtime toggles off.
      const KernelRun ref = run_timed(geo.g, shape, /*fast_kernel=*/false, window_s);
      t.add_row({geo.name, "reference", TablePrinter::fmt_int(ref.job_stats.cycles),
                 TablePrinter::fmt_int(ref.agg_cycles / ref.job_stats.cycles),
                 TablePrinter::fmt(ref.cycles_per_sec(), 0),
                 TablePrinter::fmt(ref.macs_per_sec(), 0)});
      json.add("reference.H4_L8_P3_default.sim_cycles_per_job",
               static_cast<double>(ref.job_stats.cycles), "cycle");
      json.add("reference.H4_L8_P3_default.cycles_per_sec", ref.cycles_per_sec(),
               "cycle/s");
      json.add("reference.H4_L8_P3_default.macs_per_sec", ref.macs_per_sec(), "MAC/s");
      if (fast.job_stats.cycles != ref.job_stats.cycles) {
        std::fprintf(stderr,
                     "FATAL: fast and reference kernels disagree on simulated "
                     "cycles (%llu vs %llu) -- idle skipping is not invisible\n",
                     static_cast<unsigned long long>(fast.job_stats.cycles),
                     static_cast<unsigned long long>(ref.job_stats.cycles));
        return 1;
      }
      json.add("speedup_fast_vs_reference",
               fast.cycles_per_sec() / ref.cycles_per_sec(), "x");

      // Checkpoint overhead: the same fast-kernel run with an armed, inert
      // RunControl. Simulated cycles must be bit-identical (checkpoints are
      // purely observational); only host throughput may move.
      const KernelRun armed =
          run_timed(geo.g, shape, /*fast_kernel=*/true, window_s,
                    /*armed_checkpoints=*/true);
      t.add_row({geo.name, "fast+ckpt", TablePrinter::fmt_int(armed.job_stats.cycles),
                 TablePrinter::fmt_int(armed.agg_cycles / armed.job_stats.cycles),
                 TablePrinter::fmt(armed.cycles_per_sec(), 0),
                 TablePrinter::fmt(armed.macs_per_sec(), 0)});
      json.add("checkpoint.H4_L8_P3_default.sim_cycles_per_job",
               static_cast<double>(armed.job_stats.cycles), "cycle");
      json.add("checkpoint.H4_L8_P3_default.cycles_per_sec",
               armed.cycles_per_sec(), "cycle/s");
      json.add("checkpoint_overhead_armed",
               fast.cycles_per_sec() / armed.cycles_per_sec(), "x");
      if (armed.job_stats.cycles != fast.job_stats.cycles) {
        std::fprintf(stderr,
                     "FATAL: armed checkpoints changed simulated cycles "
                     "(%llu vs %llu) -- checkpoints must be observational\n",
                     static_cast<unsigned long long>(armed.job_stats.cycles),
                     static_cast<unsigned long long>(fast.job_stats.cycles));
        return 1;
      }
      if (!smoke) {
        // The auditable acceptance numbers: recorded pre-optimization kernel
        // vs the kernel measured right now, on the default-geometry GEMM.
        json.add("preopt.H4_L8_P3_default.sim_cycles_per_job", kPreOptCyclesPerJob,
                 "cycle");
        json.add("preopt.H4_L8_P3_default.cycles_per_sec", kPreOptCyclesPerSec,
                 "cycle/s");
        json.add("preopt.H4_L8_P3_default.macs_per_sec", kPreOptMacsPerSec, "MAC/s");
        json.add("speedup_fast_vs_preopt",
                 fast.cycles_per_sec() / kPreOptCyclesPerSec, "x");
        std::printf("\ndefault geometry: %.0f sim-cycles/s (pre-opt kernel: %.0f "
                    "recorded) -> %.2fx\n",
                    fast.cycles_per_sec(), kPreOptCyclesPerSec,
                    fast.cycles_per_sec() / kPreOptCyclesPerSec);
      }
    }
  }
  t.print(stdout, smoke ? "smoke run (not a measurement)"
                        : "aggregate back-to-back job windows");

  return json.write(out_path) ? 0 : 1;
}
