/// \file bench_serve.cpp
/// \brief Serving front-end benchmark: request latency, multi-client
///        throughput, overload behavior, and the determinism contract over
///        the wire.
///
/// Measures the cost the socket/session layer adds on top of api::Service:
///
///  - LATENCY: sequential submit->RESULT round trips over a unix socket
///    (p50/p95/p99), against the same spec submitted to a warm, pooled
///    in-process api::Service with the server's worker count, the two
///    interleaved request by request so host drift hits both alike;
///  - THROUGHPUT: several clients keeping a deep pipeline of jobs in flight,
///    end-to-end jobs/s through one server;
///  - OVERLOAD: a bounded service queue under a burst 4x its capacity --
///    counts typed kCapacity refusals and proves the server stays fully
///    alive (the post-burst canary request succeeds);
///  - DETERMINISM: every RESULT's z_hash is compared against a
///    Service::run_one oracle; one mismatch fails the bench.
///
/// Usage: bench_serve [--smoke] [--out <path>]
///   --smoke   tiny sizes for CI (marker record smoke=1)
///   --out     JSON output path (default: BENCH_serve.json in the CWD)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "bench_util.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace redmule;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

uint64_t oracle_hash(const std::string& spec) {
  auto w = api::WorkloadRegistry::global().create(spec);
  const api::WorkloadResult r = api::Service::run_one(*w, {}, false);
  REDMULE_ASSERT_MSG(r.ok(), "oracle failed");
  return r.z_hash;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::print_header(
      "Remote serving front-end: latency, throughput, overload",
      "the socket/session layer adds bounded overhead over api::Service and "
      "refuses overload with typed errors instead of degrading");

  bench::JsonBenchWriter json("serve");
  json.add("smoke", smoke ? 1 : 0, "bool");

  const std::string spec =
      smoke ? "gemm:m=16,n=16,k=16,seed=5" : "gemm:m=32,n=32,k=32,seed=5";
  const uint64_t want_hash = oracle_hash(spec);
  const int latency_reqs = smoke ? 30 : 200;
  const int n_clients = smoke ? 2 : 4;
  const int jobs_per_client = smoke ? 25 : 150;

  const std::string address =
      "unix:/tmp/redmule-bench-serve." + std::to_string(::getpid()) + ".sock";
  uint64_t mismatches = 0;

  // --- Latency: sequential round trips ------------------------------------
  {
    serve::ServerConfig cfg;
    cfg.address = address;
    cfg.service.n_threads = 2;
    serve::Server server(cfg);
    server.start();
    serve::Client client(serve::ClientConfig{server.address(), "lat", 60000});

    // In-process baseline: the server's own execution layer (a pooled
    // Service with the same workers), so the difference is the socket and
    // session layer alone. Fresh construction per job (Service::run_one)
    // would charge the baseline for cluster set-up the server never pays.
    api::Service direct(cfg.service);
    auto direct_run = [&] {
      return direct.submit(api::WorkloadRegistry::global().create(spec)).get();
    };
    constexpr int kWarmup = 10;  // fill both pools before timing
    for (int i = 0; i < kWarmup; ++i) {
      if (direct_run().z_hash != want_hash) ++mismatches;
      const serve::Client::Outcome o = client.run(spec);
      if (!o.ok() || o.result.z_hash != want_hash) ++mismatches;
    }
    std::vector<double> direct_ms, remote_ms;
    for (int i = 0; i < latency_reqs; ++i) {
      auto t0 = Clock::now();
      const api::WorkloadResult r = direct_run();
      direct_ms.push_back(ms_since(t0));
      if (!r.ok() || r.z_hash != want_hash) ++mismatches;
      t0 = Clock::now();
      const serve::Client::Outcome o = client.run(spec);
      remote_ms.push_back(ms_since(t0));
      if (!o.ok() || o.result.z_hash != want_hash) ++mismatches;
    }
    const double d50 = percentile(direct_ms, 0.50);
    const double r50 = percentile(remote_ms, 0.50);
    std::printf("latency over %d reqs (%s):\n", latency_reqs, spec.c_str());
    std::printf("  in-process p50 %.3f ms | remote p50 %.3f ms  p95 %.3f  p99 %.3f"
                "  (overhead p50 %.3f ms)\n",
                d50, r50, percentile(remote_ms, 0.95),
                percentile(remote_ms, 0.99), r50 - d50);
    json.add("latency.requests", latency_reqs, "req");
    // Baseline kind: 1 = warm pooled in-process Service (not run_one).
    json.add("latency.direct_is_pooled_service", 1, "bool");
    json.add("latency.direct_workers", cfg.service.n_threads, "threads");
    json.add("latency.direct_p50_ms", d50, "ms");
    json.add("latency.remote_p50_ms", r50, "ms");
    json.add("latency.remote_p95_ms", percentile(remote_ms, 0.95), "ms");
    json.add("latency.remote_p99_ms", percentile(remote_ms, 0.99), "ms");
    json.add("latency.overhead_p50_ms", r50 - d50, "ms");
    server.drain();
  }

  // --- Throughput: pipelined multi-client traffic --------------------------
  {
    serve::ServerConfig cfg;
    cfg.address = address;
    cfg.service.n_threads = smoke ? 2 : 4;
    serve::Server server(cfg);
    server.start();

    std::vector<std::thread> threads;
    std::vector<uint64_t> client_mismatches(static_cast<size_t>(n_clients), 0);
    const auto t0 = Clock::now();
    for (int c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client(
            serve::ClientConfig{server.address(), "tput", 120000});
        std::vector<uint64_t> tags;
        tags.reserve(static_cast<size_t>(jobs_per_client));
        for (int j = 0; j < jobs_per_client; ++j)
          tags.push_back(client.submit(spec));
        for (const uint64_t tag : tags) {
          const serve::Client::Outcome o = client.wait(tag);
          if (!o.ok() || o.result.z_hash != want_hash)
            ++client_mismatches[static_cast<size_t>(c)];
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed_ms = ms_since(t0);
    for (const uint64_t m : client_mismatches) mismatches += m;
    const double total_jobs = static_cast<double>(n_clients) * jobs_per_client;
    const double jobs_per_sec = total_jobs / (elapsed_ms / 1000.0);
    std::printf("throughput: %d clients x %d jobs in %.1f ms -> %.1f jobs/s\n",
                n_clients, jobs_per_client, elapsed_ms, jobs_per_sec);
    json.add("throughput.clients", n_clients, "clients");
    json.add("throughput.jobs_per_client", jobs_per_client, "jobs");
    json.add("throughput.jobs_per_sec", jobs_per_sec, "job/s");
    json.add("throughput.elapsed_ms", elapsed_ms, "ms");
    server.drain();
  }

  // --- Overload: bounded queue under a 4x burst ----------------------------
  {
    serve::ServerConfig cfg;
    cfg.address = address;
    cfg.service.n_threads = 1;
    cfg.service.max_queue = smoke ? 4 : 16;
    cfg.service.queue_full_policy = api::QueueFullPolicy::kReject;
    serve::Server server(cfg);
    server.start();
    serve::Client client(serve::ClientConfig{server.address(), "burst", 120000});

    const int burst = static_cast<int>(cfg.service.max_queue) * 4;
    std::vector<uint64_t> tags;
    for (int i = 0; i < burst; ++i) tags.push_back(client.submit(spec));
    uint64_t ok = 0, refused = 0, other = 0;
    for (const uint64_t tag : tags) {
      const serve::Client::Outcome o = client.wait(tag);
      if (o.ok()) {
        ++ok;
        if (o.result.z_hash != want_hash) ++mismatches;
      } else if (o.code == api::ErrorCode::kCapacity) {
        ++refused;
      } else {
        ++other;
      }
    }
    // The canary: after shedding a 4x burst the server still serves cleanly.
    const serve::Client::Outcome canary = client.run(spec);
    const bool alive = canary.ok() && canary.result.z_hash == want_hash;
    std::printf("overload: burst %d into queue %zu -> %" PRIu64 " ok, %" PRIu64
                " typed refusals, %" PRIu64 " other; server alive: %s\n",
                burst, cfg.service.max_queue, ok, refused, other,
                alive ? "yes" : "NO");
    json.add("overload.burst", burst, "jobs");
    json.add("overload.completed", static_cast<double>(ok), "jobs");
    json.add("overload.typed_refusals", static_cast<double>(refused), "jobs");
    json.add("overload.other_errors", static_cast<double>(other), "jobs");
    json.add("overload.server_alive_after", alive ? 1 : 0, "bool");
    if (!alive || other != 0) ++mismatches;
    server.drain();
  }

  json.add("determinism.mismatches", static_cast<double>(mismatches), "jobs");
  json.add("determinism.ok", mismatches == 0 ? 1 : 0, "bool");
  std::printf("determinism: %s\n",
              mismatches == 0 ? "every remote result matched the oracle"
                              : "MISMATCHES -- see records");

  if (!json.write(out_path)) return 1;
  return mismatches == 0 ? 0 : 1;
}
