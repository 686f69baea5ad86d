#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

uint64_t splitmix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Data seed of job \p i under bench seed \p seed: distinct per job, never 0.
uint64_t job_seed(uint64_t seed, uint64_t i) {
  return (splitmix(splitmix(seed) + i) >> 24) + 1;
}

std::string gemm(uint32_t m, uint32_t n, uint32_t k) {
  return "gemm:m=" + std::to_string(m) + ",n=" + std::to_string(n) +
         ",k=" + std::to_string(k);
}

// The paper's 10-layer autoencoder with its bottleneck of 8, at 1/5 width.
const char* const kTrainNet =
    "network:in=128,hidden=64-64-64-64-8-64-64-64-64,batch=4,warm=1";

// oneoff_mixed: monolithic GEMMs on four geometries, tiled GEMMs streamed by
// DMA between L2 and the TCDM, and reduced autoencoder steps, cold and warm.
// Every spec gets ",seed=<distinct>" appended per job.
//
// Thirteen entries, an odd number, so the p50 of a whole number of schedules
// falls in the middle of one entry's jobs rather than on the boundary between
// two entries whose durations differ. Six are GEMMs of 0.5-7 ms, so the p50
// lands among the 9-15 ms network and tiled jobs, which overlap in duration:
// it blends three job types rather than following one short GEMM, and a fixed
// per-job cost (the serve round trip, a hand-off) is a small share of it.
const char* const kOneoffSchedule[13] = {
    "gemm:m=16,n=24,k=32,geom=4x8x3",
    "tiled:m=64,n=96,k=64",
    "gemm:m=48,n=40,k=64,geom=2x4x3",
    "network:in=64,hidden=32-32-8-32-32,batch=2",
    "gemm:m=32,n=64,k=16,geom=8x8x3",
    "gemm:m=64,n=48,k=56,geom=4x16x3",
    "network:in=96,hidden=48-48-8-48-48,batch=4,warm=1",
    "tiled:m=128,n=64,k=96",
    "network:in=64,hidden=32-32-8-32-32,batch=2,warm=1",
    "gemm:m=56,n=32,k=40,geom=2x4x3",
    "tiled:m=192,n=128,k=64",
    "gemm:m=40,n=56,k=24,geom=8x8x3",
    "network:in=96,hidden=48-48-8-48-48,batch=4",
};

uint64_t config_key(const std::string& spec) {
  const auto w = api::WorkloadRegistry::global().create(spec);
  return api::pool_key(api::resolve_cluster_config({}, w->requirements()));
}

/// The first spec of each distinct resolved cluster config, in list order.
std::vector<std::string> one_per_config(const std::vector<std::string>& specs) {
  std::vector<std::string> out;
  std::set<uint64_t> seen;
  for (const std::string& s : specs)
    if (seen.insert(config_key(s)).second) out.push_back(s);
  return out;
}

std::string without_warm(std::string spec) {
  const std::string flag = ",warm=1";
  if (const size_t at = spec.find(flag); at != std::string::npos)
    spec.erase(at, flag.size());
  return spec;
}

/// The 64 serve_small_gemm specs: every (m, n, k) in {8, 10, 13, 16}^3, in a
/// seeded order with seeded data.
std::vector<std::string> small_gemm_menu(uint64_t seed) {
  static const uint32_t kSizes[4] = {8, 10, 13, 16};
  std::vector<std::string> menu;
  for (uint32_t m : kSizes)
    for (uint32_t n : kSizes)
      for (uint32_t k : kSizes) menu.push_back(gemm(m, n, k));
  Xoshiro256 rng(splitmix(seed ^ 0x5e17e5ull));
  for (size_t i = menu.size() - 1; i > 0; --i)
    std::swap(menu[i], menu[rng.next_below(i + 1)]);
  for (size_t i = 0; i < menu.size(); ++i)
    menu[i] += ",seed=" + std::to_string(job_seed(seed, i));
  return menu;
}

/// Job i of oneoff_mixed: schedule entry i % 13 with a seed of its own.
std::string oneoff_spec(uint64_t seed, uint64_t i) {
  return std::string(kOneoffSchedule[i % std::size(kOneoffSchedule)]) +
         ",seed=" + std::to_string(job_seed(seed, i));
}

}  // namespace

const std::vector<WorkloadDef>& workload_defs() {
  // serve_small_gemm: tiny GEMMs, so serve and api dominate each round trip.
  // train_ae_warm: warm training steps, so the simulation kernel dominates.
  // oneoff_mixed: distinct jobs that construct, restage and publish.
  // Fields: name, remote, clients, workers, fixed_jobs, rate, min_jobs,
  // setups, mix, setup_batch.
  static const std::vector<WorkloadDef> defs = {
      {"serve_small_gemm", true, 2, 2, 64, 7000, 256, 21, 64, 100},
      {"train_ae_warm", false, 1, 1, 64, 16, 100, 11, 1},
      {"oneoff_mixed", true, 1, 1, 52, 80, 104, 31, 13},
  };
  return defs;
}

uint64_t WorkloadDef::block_jobs() const {
  const auto mixes = static_cast<uint64_t>(0.1 * rate / static_cast<double>(mix));
  return std::max<uint64_t>(mixes, 1) * mix;
}

uint64_t WorkloadDef::jobs_for(double seconds) const {
  const auto mixes = static_cast<uint64_t>(seconds * rate / static_cast<double>(mix) + 0.5);
  return std::max(mixes * mix, (min_jobs + mix - 1) / mix * mix);
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workload_defs())
    if (d.name == name) return &d;
  return nullptr;
}

JobList::JobList(const WorkloadDef& def, uint64_t seed)
    : name_(def.name), seed_(seed) {
  if (name_ == "serve_small_gemm") {
    cycle_ = small_gemm_menu(seed);
    warmup_ = one_per_config(cycle_);
    network_probe_ = "network:in=32,hidden=16-8-16,batch=2,warm=1,seed=" +
                     std::to_string(job_seed(seed, 1u << 20));
  } else if (name_ == "train_ae_warm") {
    // One weight seed per run (one template); input_seed is the step index.
    const std::string net =
        std::string(kTrainNet) + ",seed=" + std::to_string(job_seed(seed, 0));
    for (uint64_t step = 1; step <= def.fixed_jobs; ++step)
      cycle_.push_back(net + ",input_seed=" + std::to_string(step));
    warmup_ = {cycle_.front()};
    network_probe_ = cycle_.front();
  } else {
    // Set-up constructs every distinct config with cold jobs of seeds no timed
    // job uses (timed seeds come from job_seed), so no template is warmed.
    std::vector<std::string> cold;
    for (const char* s : kOneoffSchedule)
      cold.push_back(without_warm(s) + ",seed=1");
    warmup_ = one_per_config(cold);
    network_probe_ = std::string(kOneoffSchedule[6]) + ",seed=1";
  }
}

std::string JobList::at(uint64_t i) const {
  if (!cycle_.empty()) return cycle_[i % cycle_.size()];
  return oneoff_spec(seed_, i);
}

}  // namespace perfbench
