/// \file perfbench.hpp
/// \brief The repository benchmark: workloads, order statistics, spans and
///        the measurement fixtures shared by perfbench and its self-tests.
///
/// Every workload is a closed loop over a job list that is a pure function
/// of the --seed argument; the program under test only ever sees the spec
/// strings. Timings are host time (steady_clock); cycle counts are simulated
/// time and must repeat bit-for-bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace redmule;

int64_t now_ns();

/// Confines the calling thread, and every thread it starts from then on, to
/// the last \p cpus CPUs the process started with (all of them when \p cpus
/// is 0 or exceeds their number); the destructor restores the previous set.
/// Where the host refuses the change, threads run wherever they may.
class CpuScope {
 public:
  explicit CpuScope(unsigned cpus);
  ~CpuScope();
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;
  /// The number of CPUs the threads may run on.
  unsigned cpus() const { return cpus_; }

 private:
  std::vector<unsigned char> prev_;  ///< the cpu_set_t in force before
  unsigned cpus_ = 0;
};

/// Host speed, read off a fixed reference computation (build a hash map of
/// 8192 fixed integers and probe it with 16384) that a helper process runs on
/// request: this binary started with --reference, see reference_helper(). The
/// host CPU's speed drifts by up to 25% for tens of seconds at a time on a
/// shared VM, so a timed phase samples the reference on its own CPUs between
/// segments of jobs, while no job runs, and reports host time at the nominal
/// reference speed. The helper shares no memory, allocator or code with the
/// program under test, so a change to the program does not move the
/// reference.
class HostSpeed {
 public:
  static constexpr double kNominalUs = 1000;
  /// Starts the helper; it inherits the calling thread's CPUs.
  HostSpeed();
  /// Ends the helper and waits for it.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;
  /// Median duration in us of kRepeats back-to-back reference computations,
  /// so one computation that the scheduler interrupts does not skew the
  /// scale of a whole segment.
  double sample();
  static constexpr int kRepeats = 3;

 private:
  int pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
};

/// The helper's main loop: one reference computation per byte read from
/// standard input, its duration in us written to standard output as a double;
/// returns at end of input.
int reference_helper();

/// CPUs of every timed phase, traced block and probe. On a shared 4-CPU VM,
/// cross-CPU wake-ups make a round trip's host time depend on how quickly the
/// host runs an idle virtual CPU again: on two CPUs serve_small_gemm's
/// throughput read 7350 jobs/s (spread 0.06) over ten runs and 6180 (spread
/// 0.34) over the next ten, and on all four CPUs it swung between 4400 and
/// 11200. On one CPU a hand-off is a context switch. The price: workers
/// interleave on that CPU instead of running in parallel.
constexpr unsigned kTimedCpus = 1;

// --- Order statistics ---------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least pct% of the
/// sample at or below it. Empty input gives 0.
double percentile(std::vector<double> v, unsigned pct);
/// Samples that lie strictly beyond the nearest-rank pct-th percentile.
size_t samples_beyond(size_t n, unsigned pct);
/// A tail percentile is reported only with at least ten samples beyond it.
bool tail_supported(size_t n, unsigned pct);
double median(std::vector<double> v);

// --- Spans --------------------------------------------------------------------

/// One timed call into a layer. Spans of one job share \p job; \p parent is
/// the index of the enclosing span in the same tracer (-1 for a root).
struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t job = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span recorder; spans stay in memory until write(). A
/// disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  int32_t open(const char* name, const char* layer, uint64_t job);
  void close(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// One line per span: job, parent, layer, name, start, end (ns).
  void write(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< stack of open span indices
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, const char* layer, uint64_t job)
      : t_(t), id_(t.open(name, layer, job)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int32_t id_;
};

/// Self time of every span: its duration minus the part of its interval that
/// the union of its direct children covers.
std::vector<int64_t> self_times_ns(const std::vector<Span>& spans);

// --- Workloads and job lists ----------------------------------------------------

struct WorkloadDef {
  std::string name;
  /// true: serve::Client connections to an in-process serve::Server over
  /// loopback TCP; false: api::Service::submit in-process.
  bool remote = false;
  unsigned clients = 1;  ///< closed loop: each keeps one job in flight
  unsigned workers = 1;  ///< service worker threads
  /// Jobs [0, fixed_jobs) are the fixed list that the exact metrics cover and
  /// the traced run replays.
  uint64_t fixed_jobs = 0;
  /// Jobs per timed second this host is expected to complete: a run of
  /// --seconds times exactly jobs_for(seconds) jobs, so every run does the
  /// same work and its exact metrics and memory repeat.
  double rate = 1;
  /// A timed phase runs at least this many jobs (ten beyond the p90).
  uint64_t min_jobs = 100;
  /// Set-up samples per run; setup_s is their median.
  unsigned setups = 1;
  /// Every run of this many consecutive jobs has the same shape mix, so the
  /// same simulated work.
  uint64_t mix = 1;
  /// Fresh set-ups per set-up sample; a sample is their mean. Set-ups of
  /// under a millisecond are bimodal (about 0.4 and 0.8 ms on a 4-vCPU VM)
  /// and get faster as the process warms up, so the median of 101 single ones
  /// read 0.32-0.42 spread over ten runs; the median of 21 means of 100 reads
  /// about 0.2.
  unsigned setup_batch = 1;

  /// The timed phase's job count for a run of \p seconds: a whole number of
  /// shape mixes, at least min_jobs.
  uint64_t jobs_for(double seconds) const;
  /// Jobs in one block of the traced run, or between two samples of the host
  /// speed: about 100 ms of work, a whole number of shape mixes.
  uint64_t block_jobs() const;
};

const std::vector<WorkloadDef>& workload_defs();
const WorkloadDef* find_workload(const std::string& name);

/// A workload's job list: at(i) is a pure function of (workload, seed, i).
class JobList {
 public:
  JobList(const WorkloadDef& def, uint64_t seed);
  std::string at(uint64_t i) const;
  /// at(i) == at(i + period()); 0 means no spec ever repeats.
  uint64_t period() const { return cycle_.size(); }
  /// Specs a set-up runs to construct every pooled config (and warm every
  /// template) the timed phase needs; never a spec of the timed list unless
  /// the list reuses it.
  const std::vector<std::string>& warmup() const { return warmup_; }
  /// A template-capable network spec the layer probes measure: the list's
  /// own where it has one, else a fixed small autoencoder.
  const std::string& network_probe() const { return network_probe_; }

 private:
  std::string name_;
  uint64_t seed_ = 0;
  std::vector<std::string> cycle_;
  std::vector<std::string> warmup_;
  std::string network_probe_;
};

// --- Measurement fixtures ---------------------------------------------------------

struct JobRecord {
  uint64_t idx = 0;
  int64_t t0_ns = 0;  ///< before submit
  int64_t t1_ns = 0;  ///< result in hand; 0 when the job never ran
  /// In-process jobs: WorkloadRegistry::create of the spec, which runs on the
  /// caller's side of submit and so outside [t0, t1). Remote jobs: 0, the
  /// server parses the spec inside the round trip.
  int64_t parse_ns = 0;
  /// HostSpeed::kNominalUs over the reference time around the job's segment;
  /// 1 in phases that do not sample the host speed.
  double scale = 1;
  bool ok = false;
  uint64_t z_hash = 0;
  uint64_t cycles = 0;
  uint64_t macs = 0;

  double latency_ms() const { return static_cast<double>(t1_ns - t0_ns) / 1e6; }
  /// Spec in to result out: the latency plus the spec parse.
  int64_t spec_to_result_ns() const { return t1_ns - t0_ns + parse_ns; }
};

/// The jobs of one closed-loop phase.
struct Timed {
  std::vector<JobRecord> recs;
  double raw_s = 0;     ///< summed over segments: first submit to last result
  double scaled_s = 0;  ///< the same at the nominal reference speed
};

/// One fresh set-up of a workload: the Service (or Server plus connected
/// clients) with every pooled config and template the list needs warmed.
class Fixture {
 public:
  Fixture(const WorkloadDef& def, const JobList& jobs);
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  /// Closed loop over jobs first .. first+count-1, each client taking the next
  /// job when its last one returns. With \p speed the jobs run in segments of
  /// def.block_jobs(), and the host speed is sampled before the first and
  /// after every segment. Stops early, with the records of the jobs that ran,
  /// once kGiveUpSeconds have passed.
  Timed run(const JobList& jobs, uint64_t first, uint64_t count,
            HostSpeed* speed = nullptr);
  static constexpr double kGiveUpSeconds = 100;

  /// The first error message a job returned, if any.
  std::string first_error() const;

  api::ServiceStats service_stats() const;
  /// Server counters after a STATS round trip, so every frame of a job whose
  /// result is already in hand has been counted (one extra frame each way).
  serve::ServerStats server_stats();

 private:
  JobRecord run_one(unsigned client, const std::string& spec, uint64_t idx);
  void note_error(const std::string& what);

  WorkloadDef def_;
  mutable std::mutex error_m_;
  std::string first_error_;  ///< guarded by error_m_
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::unique_ptr<api::Service> service_;
};

/// Checks every record against an oracle: a cold run of its spec on a freshly
/// constructed cluster. A failed job or any mismatch in z_hash or simulated
/// cycles marks the record failed (ok = false). Returns the number of failed
/// records.
size_t verify(const JobList& jobs, std::vector<JobRecord>& recs);

/// Remote versus in-process round trips on the same specs, clients and worker
/// count (a pooled, warm api::Service, not Service::run_one), in alternating
/// blocks so host-speed drift hits both sides alike. Frame counts cover the
/// probe's jobs only.
struct ServeProbe {
  double remote_p50_us = 0;
  double service_p50_us = 0;
  double overhead_p50_us = 0;  ///< remote_p50_us - service_p50_us
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t protocol_errors = 0;
  size_t failed = 0;
};
ServeProbe serve_probe(const JobList& jobs, unsigned clients, unsigned workers,
                       unsigned blocks, unsigned jobs_per_block);

// --- Attribution --------------------------------------------------------------------

/// Host time of the same jobs measured three ways, summed over the jobs.
struct LayerTimes {
  /// Spec in to result out on the workload's own path (remote or in-process),
  /// with concurrency as in the timed phase.
  double round_trip_ns = 0;
  /// The same jobs through a pooled, warm in-process Service with the same
  /// clients and workers; equal to round_trip_ns for in-process workloads.
  double in_process_ns = 0;
  /// Self time per layer of a replay that calls the public functions a job
  /// passes through (codec, create, pool, run) directly on one thread.
  std::map<std::string, double> replay_self_ns;
};

/// The round trip split into layers. The replay's self times are kept; what
/// the replay does not cover is measured as two remainders: the in-process
/// round trip minus the replay's non-serve calls is api's (the Service queue,
/// worker wake-up and future), and the remote round trip minus the in-process
/// one minus the replay's codec calls is serve's (sockets, the poll loop, the
/// hand-off to the Service). The shares add up to 1. The attribution closes
/// when neither remainder is below -tolerance x round trip, that is when the
/// replayed calls fit inside the separately measured round trips.
struct Attribution {
  std::map<std::string, double> share;  ///< per layer, of round_trip_ns
  double api_rest_ns = 0;
  double serve_rest_ns = 0;
  bool closes = false;
};
Attribution attribute(const LayerTimes& t, double tolerance);

/// One named measurement, printed with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What a run attempted and how much of it failed or mismatched its oracle.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool ok = true;  ///< false on a failed job or a broken benchmark invariant
  std::vector<std::string> problems;
  void fail(const std::string& why) {
    ok = false;
    problems.push_back(why);
  }
};

/// The traced run: per-layer attribution of the workload's round trip and the
/// layer probes. Returns every per-layer metric and writes the replay's spans
/// to \p span_path when it is not empty.
std::vector<Metric> traced_run(const WorkloadDef& def, const JobList& jobs,
                               uint64_t seed, double seconds,
                               const std::string& span_path, Tally& tally);

/// VmHWM of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
