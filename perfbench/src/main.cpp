/// perfbench: runs one named workload and prints every metric by name and unit.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--git-sha <sha>] [--loadavg <text>] [--spans <path>]
///
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
/// last line of standard output is one JSON object: correct, attempted,
/// failed, metrics. The line before it stamps the build and the host.
///
///   perfbench --reference
///
/// is the helper process that HostSpeed starts.
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string loadavg;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--loadavg") a.loadavg = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (a.loadavg.empty()) {
    std::ifstream f("/proc/loadavg");
    std::string one, five, fifteen;
    f >> one >> five >> fifteen;
    a.loadavg = one + " " + five + " " + fifteen;
  }
  return a;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The timed run: samples of fresh set-ups, then the closed loop over jobs_for(seconds)
/// jobs, on kTimedCpus CPUs. Every host time is scaled to the nominal
/// reference speed (see HostSpeed); \p raw gets the measured figures for the
/// log.
std::vector<Metric> timed_run(const WorkloadDef& def, const JobList& jobs,
                              double seconds, Tally& tally, std::vector<Metric>& raw) {
  const CpuScope cpus(kTimedCpus);
  HostSpeed speed;
  std::vector<double> setup_s, setup_raw_s, refs;
  // Each sample is the mean of def.setup_batch fresh set-ups, each timed on
  // its own; the teardown of the one before stays outside the clock.
  std::unique_ptr<Fixture> fx;
  double ref_before = speed.sample();
  for (unsigned k = 0; k < def.setups; ++k) {
    int64_t total_ns = 0;
    for (unsigned b = 0; b < def.setup_batch; ++b) {
      fx.reset();
      const int64_t t0 = now_ns();
      fx = std::make_unique<Fixture>(def, jobs);
      total_ns += now_ns() - t0;
    }
    const double s = static_cast<double>(total_ns) / 1e9 / def.setup_batch;
    const double ref_after = speed.sample();
    const double ref = 0.5 * (ref_before + ref_after);
    ref_before = ref_after;
    refs.push_back(ref);
    setup_raw_s.push_back(s);
    setup_s.push_back(s * HostSpeed::kNominalUs / ref);
  }
  const uint64_t count = def.jobs_for(seconds);
  Timed t = fx->run(jobs, 0, count, &speed);
  const double rss = peak_rss_mib();  // before verification allocates
  const std::string first_error = fx->first_error();
  fx.reset();

  std::vector<JobRecord>& recs = t.recs;
  if (recs.size() != count) tally.fail("the timed phase gave up before its last job");
  tally.attempted = count;
  tally.failed = verify(jobs, recs) + (count - recs.size());
  for (const JobRecord& r : recs)
    if (!r.ok) {
      tally.fail("job " + std::to_string(r.idx) + " (" + jobs.at(r.idx) +
                 ") failed or differs from its oracle" +
                 (first_error.empty() ? "" : "; first error: " + first_error));
      break;
    }
  if (!tail_supported(recs.size(), 90))
    tally.fail("too few jobs for a p90 with ten samples beyond it");

  std::vector<double> lat, lat_raw;
  double cycles = 0;
  uint64_t fixed_cycles = 0;
  uint64_t fixed_macs = 0;
  for (const JobRecord& r : recs) {
    lat.push_back(r.latency_ms() * r.scale);
    lat_raw.push_back(r.latency_ms());
    refs.push_back(HostSpeed::kNominalUs / r.scale);
    cycles += static_cast<double>(r.cycles);
    if (r.idx < def.fixed_jobs) {
      fixed_cycles += r.cycles;
      fixed_macs += r.macs;
    }
  }
  const double n = static_cast<double>(recs.size());
  raw = {
      {"raw.latency_p50_ms", "ms", percentile(lat_raw, 50)},
      {"raw.latency_p90_ms", "ms", percentile(lat_raw, 90)},
      {"raw.jobs_per_s", "1/s", n / t.raw_s},
      {"raw.setup_s", "s", median(setup_raw_s)},
      {"host.reference_us", "us", median(refs)},
  };
  return {
      {"latency_p50_ms", "ms", percentile(lat, 50)},
      {"latency_p90_ms", "ms", percentile(lat, 90)},
      {"jobs_per_s", "1/s", n / t.scaled_s},
      {"sim_cycles_per_host_s", "cycles/s", cycles / t.scaled_s},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mib", "MiB", rss},
      {"sim_cycles", "cycles", static_cast<double>(fixed_cycles)},
      {"mac_per_cycle", "MAC/cycle",
       static_cast<double>(fixed_macs) / static_cast<double>(fixed_cycles)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--reference") return reference_helper();
  try {
    const Args args = parse(argc, argv);
    const WorkloadDef* def = find_workload(args.workload);
    if (def == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    const JobList jobs(*def, args.seed);
    Tally tally;
    std::vector<Metric> raw;
    const std::vector<Metric> metrics =
        args.trace ? traced_run(*def, jobs, args.seed, args.seconds, args.spans, tally)
                   : timed_run(*def, jobs, args.seconds, tally, raw);

    std::printf("workload %s seed %llu trace %d: %llu jobs attempted, %llu failed "
                "(failed_frac %s)\n",
                def->name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                num(tally.attempted == 0 ? 0.0
                                         : static_cast<double>(tally.failed) /
                                               static_cast<double>(tally.attempted))
                    .c_str());
    for (const std::string& p : tally.problems) std::printf("  FAIL: %s\n", p.c_str());
    for (const Metric& m : metrics)
      std::printf("  %-30s %16s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
    for (const Metric& m : raw)
      std::printf("  %-30s %16s %s (as measured, not a gated metric)\n", m.name.c_str(),
                  num(m.value).c_str(), m.unit.c_str());

    std::printf("{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                "\"compiler\": %s, \"build_type\": %s, \"hardware_concurrency\": %u, "
                "\"cpus_used\": %u, \"git_sha\": %s, \"loadavg_at_start\": %s}}\n",
                quoted(def->name).c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, quoted(PERFBENCH_COMPILER).c_str(),
                quoted(PERFBENCH_BUILD_TYPE).c_str(), std::thread::hardware_concurrency(),
                CpuScope(kTimedCpus).cpus(), quoted(args.git_sha).c_str(), quoted(args.loadavg).c_str());
    std::string json = "{\"correct\": ";
    json += tally.ok && tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) json += ", ";
      json += quoted(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
              ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
