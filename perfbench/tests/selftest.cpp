// Self-tests of the benchmark's own logic: job lists, order statistics,
// span self times, the layer attribution and the sign of the measured serve
// overhead.
//
//   cmake --build .bench_build --target perfbench_selftest
//   ctest --test-dir .bench_build
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

std::vector<std::string> prefix(const WorkloadDef& def, uint64_t seed) {
  const JobList jobs(def, seed);
  std::vector<std::string> out;
  for (uint64_t i = 0; i < def.fixed_jobs; ++i) out.push_back(jobs.at(i));
  return out;
}

/// The specs with their seeds removed, sorted: the list's shape mix.
std::vector<std::string> shapes(std::vector<std::string> specs) {
  for (std::string& s : specs) {
    for (const char* key : {",seed=", ",input_seed="}) {
      const size_t at = s.find(key);
      if (at != std::string::npos) {
        const size_t end = s.find(',', at + 1);
        s.erase(at, end == std::string::npos ? std::string::npos : end - at);
      }
    }
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

void test_job_lists_follow_the_seed() {
  for (const WorkloadDef& def : workload_defs()) {
    const auto a = prefix(def, 7);
    CHECK(a == prefix(def, 7));
    CHECK(a != prefix(def, 8));
    // Only data seeds vary, so the simulated work, and with it sim_cycles and
    // mac_per_cycle, is the same for every seed.
    CHECK(shapes(a) == shapes(prefix(def, 8)));
    for (const std::string& s : a)
      CHECK(api::WorkloadRegistry::global().create(s)->validate().code ==
            api::ErrorCode::kNone);
    const uint64_t n = def.jobs_for(0.01);
    CHECK(n % def.mix == 0 && n >= def.min_jobs);
    CHECK(tail_supported(n, 90));
  }
  // One-off jobs never repeat; the cycled lists repeat with their period.
  const JobList oneoff(*find_workload("oneoff_mixed"), 3);
  CHECK(oneoff.period() == 0 && oneoff.at(5) != oneoff.at(5 + 13));
  const JobList menu(*find_workload("serve_small_gemm"), 3);
  CHECK(menu.period() == 64 && menu.at(5) == menu.at(69));
}

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(percentile(v, 50) == 50);
  CHECK(percentile(v, 90) == 90);
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(tail_supported(100, 90));
  CHECK(!tail_supported(99, 90));
  CHECK(samples_beyond(1000, 99) == 10 && !tail_supported(999, 99));
  CHECK(median({3, 1, 2, 4}) == 2.5);
}

Span span(int32_t parent, int64_t a, int64_t b) {
  Span s;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void test_self_time() {
  // Root [0, 100) with children [10, 30), [20, 50) (overlapping) and [90, 120)
  // (clipped to the root); a grandchild [12, 18) inside the first child.
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 30), span(0, 20, 50),
                                   span(0, 90, 120), span(1, 12, 18)};
  const std::vector<int64_t> self = self_times_ns(spans);
  CHECK(self[0] == 100 - (40 + 10));
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[4] == 6);

  // Spans a Tracer records nest, so a job's self times add up to its root.
  Tracer tr(true);
  {
    ScopedSpan root(tr, "job", "perfbench", 1);
    {
      ScopedSpan a(tr, "a", "api", 1);
      ScopedSpan b(tr, "b", "cluster", 1);
    }
    ScopedSpan c(tr, "c", "serve", 1);
  }
  const std::vector<int64_t> st = self_times_ns(tr.spans());
  int64_t sum = 0;
  for (int64_t x : st) sum += x;
  CHECK(sum == tr.spans()[0].end_ns - tr.spans()[0].start_ns);
  Tracer off(false);
  { ScopedSpan s(off, "x", "api", 1); }
  CHECK(off.spans().empty());
}

void test_host_speed() {
  // The reference helper answers every request with a plausible duration and
  // ends when its HostSpeed does.
  HostSpeed speed;
  for (int i = 0; i < 3; ++i) {
    const double us = speed.sample();
    CHECK(us > 1 && us < 1e6);
  }
}

void test_attribution() {
  // A remote job of 100: 70 of it in-process, of which the replay covers 50
  // (5 codec, 40 cluster, 5 api); so api's remainder is 70 - 45 = 25 and
  // serve's 100 - 70 - 5 = 25.
  LayerTimes t;
  t.round_trip_ns = 100;
  t.in_process_ns = 70;
  t.replay_self_ns = {{"serve", 5}, {"cluster", 40}, {"api", 5}};
  Attribution a = attribute(t, 0.05);
  CHECK(a.closes);
  CHECK(a.api_rest_ns == 25 && a.serve_rest_ns == 25);
  CHECK(a.share["api"] == 0.3 && a.share["serve"] == 0.3 && a.share["cluster"] == 0.4);
  double sum = 0;
  for (const auto& [layer, v] : a.share) sum += v;
  CHECK(std::abs(sum - 1) < 1e-12);

  // Replayed calls that take longer than the in-process round trip, or an
  // in-process round trip longer than the remote one, do not close.
  t.replay_self_ns["cluster"] = 80;
  CHECK(!attribute(t, 0.05).closes);
  t.replay_self_ns["cluster"] = 40;
  t.in_process_ns = 110;
  CHECK(!attribute(t, 0.05).closes);
  // Within the tolerance they do.
  t.in_process_ns = 98;
  CHECK(attribute(t, 0.05).closes);

  // In-process workloads: no serve remainder, api takes the rest.
  LayerTimes local;
  local.round_trip_ns = local.in_process_ns = 60;
  local.replay_self_ns = {{"cluster", 50}, {"workloads", 4}};
  a = attribute(local, 0.05);
  CHECK(a.closes && a.serve_rest_ns == 0 && a.api_rest_ns == 6);
}

void test_serve_overhead_is_not_negative() {
  // The in-process baseline is a pooled, warm Service with the same workers
  // and clients, so the remote round trip can only add to it.
  const JobList menu(*find_workload("serve_small_gemm"), 5);
  for (unsigned n : {1u, 2u}) {
    const ServeProbe p = serve_probe(menu, n, n, 4, 128);
    std::printf("serve probe, %u client(s): remote %.1f us, in-process %.1f us\n", n,
                p.remote_p50_us, p.service_p50_us);
    CHECK(p.failed == 0);
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
    // Sanitizers slow every call by far more than the serve layer costs.
    CHECK(p.overhead_p50_us >= 0);
#endif
    CHECK(p.protocol_errors == 0);
    CHECK(p.frames_in == 4 * 128 + 1);  // one SUBMIT per job, one STATS
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--reference") return reference_helper();
  test_job_lists_follow_the_seed();
  test_tail_rule();
  test_self_time();
  test_attribution();
  test_host_speed();
  test_serve_overhead_is_not_negative();
  std::printf(g_failures == 0 ? "all self-tests passed\n" : "%d check(s) failed\n",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
