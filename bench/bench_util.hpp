/// \file bench_util.hpp
/// \brief Shared helpers for the per-figure bench binaries.
///
/// Each bench binary regenerates one table or figure of the paper: it runs
/// the cycle-accurate simulation (and, where the figure needs it, the
/// software baseline on the ISS cores), feeds the measured throughput into
/// the calibrated energy model, and prints the same rows/series the paper
/// reports. Absolute agreement is expected at the calibration anchors;
/// elsewhere the *shape* of the series is the reproduction target (see
/// EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/sw_gemm.hpp"
#include "common/table.hpp"
#include "core/golden.hpp"
#include "model/energy.hpp"
#include "workloads/gemm.hpp"

namespace redmule::bench {

/// Runs one GEMM on the accelerator in a fresh cluster; returns its counters.
/// This is the `gemm` workload itself (api::GemmWorkload through
/// Service::run_one): operands drawn from \p seed, TCDM sized to the
/// problem, banks widened for wide geometries.
inline core::JobStats run_hw(const workloads::GemmShape& s, uint64_t seed = 1,
                             const cluster::ClusterConfig& cfg = {}) {
  api::GemmWorkload w({s, cfg.geometry, seed});
  const api::WorkloadResult r = api::Service::run_one(w, cfg, false);
  REDMULE_REQUIRE(r.ok(), "bench GEMM failed: " + r.error.to_string());
  return r.stats;
}

/// The cluster config the `gemm` workload resolves for shape \p s on \p g.
inline cluster::ClusterConfig gemm_cluster_config(const workloads::GemmShape& s,
                                                  const core::Geometry& g = {}) {
  return api::resolve_cluster_config({}, api::GemmWorkload({s, g}).requirements());
}

/// Runs the same GEMM on \p n_cores ISS cores (software baseline).
inline cluster::SwGemmStats run_sw(const workloads::GemmShape& s, uint64_t seed = 1,
                                   unsigned n_cores = 8) {
  cluster::Cluster cl(gemm_cluster_config(s));
  cluster::RedmuleDriver drv(cl);
  Xoshiro256 rng(seed);
  const auto x = workloads::random_matrix(s.m, s.n, rng);
  const auto w = workloads::random_matrix(s.n, s.k, rng);
  const uint32_t xa = drv.place_matrix(x);
  const uint32_t wa = drv.place_matrix(w);
  const uint32_t za = drv.alloc(s.m * s.k * 2);
  return cluster::run_sw_gemm(cl, xa, wa, za, s.m, s.n, s.k, n_cores);
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// Machine-readable bench output: a flat list of (name, value, unit) records
/// written as JSON alongside whatever human-readable table the bench prints.
/// Downstream tooling (CI perf tracking, plots) consumes the JSON; humans
/// read the table. Records keep insertion order.
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  void add(const std::string& name, double value, const std::string& unit) {
    records_.push_back({name, value, unit});
  }

  /// Escapes \p s for use inside a JSON string literal (quotes, backslashes,
  /// control characters). Record names routinely embed generated geometry /
  /// shape labels, so they cannot be trusted to be JSON-clean.
  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  /// Writes {"bench": ..., "records": [{"name","value","unit"}...]} to
  /// \p path. Returns false (and prints to stderr) on any I/O failure --
  /// including short writes detected at fclose, not just open errors -- so
  /// `return json.write(path) ? 0 : 1;` makes a bench fail loudly instead of
  /// letting CI smoke runs silently produce nothing.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonBenchWriter: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 json_escape(bench_name_).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\"}%s\n",
                   json_escape(r.name).c_str(), r.value, json_escape(r.unit).c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    const bool io_ok = std::ferror(f) == 0;
    const bool close_ok = std::fclose(f) == 0;
    if (!io_ok || !close_ok) {
      std::fprintf(stderr, "JsonBenchWriter: write to %s failed\n", path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return true;
  }

 private:
  struct Record {
    std::string name;
    double value;
    std::string unit;
  };
  std::string bench_name_;
  std::vector<Record> records_;
};

}  // namespace redmule::bench
