#include "api/workload.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "workloads/network.hpp"
#include "workloads/tiled_gemm.hpp"

namespace redmule::api {

namespace {

/// Allocator slack every sizing path reserves on top of its operand bytes
/// (alignment padding plus headroom for small scratch allocations).
constexpr uint64_t kTcdmSlackBytes = 4096;

/// Maps the tiled pipeline's counters onto the JobStats shape results carry:
/// cycles cover the whole pipeline (DMA included), advance/stall/fma are the
/// engine counters summed over the tile jobs.
core::JobStats tiled_job_stats(const cluster::TiledGemmStats& ts) {
  core::JobStats js;
  js.cycles = ts.total_cycles;
  js.advance_cycles = ts.advance_cycles;
  js.stall_cycles = ts.stall_cycles;
  js.macs = ts.macs;
  js.fma_ops = ts.fma_ops;
  return js;
}

Error check_gemm_spec(const GemmSpec& spec) {
  try {
    spec.geometry.validate();
  } catch (const redmule::Error& e) {
    return {ErrorCode::kBadConfig, std::string("invalid geometry: ") + e.what()};
  }
  if (spec.shape.m < 1 || spec.shape.n < 1 || spec.shape.k < 1)
    return {ErrorCode::kBadConfig, "matrix sizes must be positive"};
  return {};
}

/// The operands of a GEMM spec, drawn from seed in the order X, W, then Y
/// when accumulating (Y stays empty otherwise).
struct GemmOperands {
  workloads::MatrixF16 x, w, y;
};

GemmOperands draw_gemm_operands(const GemmSpec& spec) {
  Xoshiro256 rng(spec.seed);
  GemmOperands ops;
  ops.x = workloads::random_matrix(spec.shape.m, spec.shape.n, rng);
  ops.w = workloads::random_matrix(spec.shape.n, spec.shape.k, rng);
  if (spec.accumulate)
    ops.y = workloads::random_matrix(spec.shape.m, spec.shape.k, rng);
  return ops;
}

std::string shape_tag(const workloads::GemmShape& s) {
  return !s.name.empty() ? s.name
                         : std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
                               std::to_string(s.k);
}

}  // namespace

cluster::ClusterConfig resolve_cluster_config(const cluster::ClusterConfig& base,
                                              const ClusterRequirements& reqs) {
  try {
    reqs.geometry.validate();
  } catch (const redmule::Error& e) {
    throw TypedError(ErrorCode::kBadConfig,
                     std::string("invalid geometry: ") + e.what());
  }
  cluster::ClusterConfig cfg = base;
  cfg.geometry = reqs.geometry;
  while (cfg.tcdm.n_banks < cfg.geometry.mem_ports()) cfg.tcdm.n_banks *= 2;
  // All growth happens in 64-bit: doubling the 32-bit config fields (or the
  // 32-bit TcdmConfig::size_bytes() product) directly would wrap -- and then
  // spin forever -- for working sets past 2 GiB.
  uint64_t tcdm_size =
      static_cast<uint64_t>(cfg.tcdm.n_banks) * cfg.tcdm.words_per_bank * 4;
  while (tcdm_size < reqs.tcdm_bytes) {
    cfg.tcdm.words_per_bank *= 2;
    tcdm_size *= 2;
  }
  if (tcdm_size > UINT32_MAX - cfg.tcdm.base_addr)
    throw TypedError(ErrorCode::kCapacity,
                     "workload TCDM request exceeds the 32-bit cluster "
                     "address space");
  uint64_t l2_size = cfg.l2.size_bytes;
  while (l2_size < reqs.l2_bytes) l2_size *= 2;
  if (l2_size > UINT32_MAX - cfg.l2.base_addr)
    throw TypedError(ErrorCode::kCapacity,
                     "workload layout exceeds the addressable L2");
  cfg.l2.size_bytes = static_cast<uint32_t>(l2_size);
  return cfg;
}

uint64_t pool_key(const cluster::ClusterConfig& c) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t v :
       {uint64_t{c.n_cores}, uint64_t{c.periph_base}, uint64_t{c.geometry.h},
        uint64_t{c.geometry.l}, uint64_t{c.geometry.p},
        uint64_t{c.tcdm.base_addr}, uint64_t{c.tcdm.n_banks},
        uint64_t{c.tcdm.words_per_bank}, uint64_t{c.l2.base_addr},
        uint64_t{c.l2.size_bytes}, uint64_t{c.l2.bytes_per_cycle},
        uint64_t{c.l2.access_latency}, uint64_t{c.hci_max_stall},
        uint64_t{c.shallow_has_priority}, uint64_t{c.dma_channels}}) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t hash_fold(uint64_t h, const workloads::MatrixF16& m) {
  const auto* p = reinterpret_cast<const uint8_t*>(m.data());
  for (size_t i = 0; i < m.size_bytes(); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t hash_matrix(const workloads::MatrixF16& m) {
  return hash_fold(0xcbf29ce484222325ULL, m);
}

// --- ScopedRunControl -------------------------------------------------------

RunContext pin_wall_budget(RunContext ctx) {
  if (ctx.deadline.max_wall_ms != 0 && !ctx.wall_start)
    ctx.wall_start = std::chrono::steady_clock::now();
  return ctx;
}

ScopedRunControl::ScopedRunControl(cluster::Cluster& cluster,
                                   const RunContext& ctx)
    : cluster_(cluster) {
  const bool want = ctx.cancel != nullptr || !ctx.deadline.unlimited() ||
                    (ctx.fault_plan != nullptr && !ctx.fault_plan->empty());
  if (!want) return;
  if (ctx.cancel != nullptr) control_.set_cancel_flag(ctx.cancel);
  // The cycle budget is relative to the cluster's current cycle, so pooled
  // (reset) and freshly-built clusters observe the identical budget.
  if (ctx.deadline.max_sim_cycles != 0)
    control_.set_cycle_limit(cluster.cycle() + ctx.deadline.max_sim_cycles);
  if (ctx.deadline.max_wall_ms != 0)
    control_.set_wall_deadline(
        ctx.wall_start.value_or(std::chrono::steady_clock::now()) +
        std::chrono::milliseconds(ctx.deadline.max_wall_ms));
  if (ctx.fault_plan != nullptr)
    control_.arm_faults(*ctx.fault_plan, ctx.attempt);
  cluster_.install_run_control(&control_);
  armed_ = true;
}

ScopedRunControl::~ScopedRunControl() {
  if (armed_) cluster_.install_run_control(nullptr);
}

// --- GemmWorkload -----------------------------------------------------------

std::string GemmWorkload::name() const { return "gemm:" + shape_tag(spec_.shape); }

ClusterRequirements GemmWorkload::requirements() const {
  ClusterRequirements reqs;
  reqs.geometry = spec_.geometry;
  uint64_t need = spec_.shape.bytes() + kTcdmSlackBytes;
  if (spec_.accumulate)
    need += 2ull * spec_.shape.m * spec_.shape.k;  // the Y operand
  reqs.tcdm_bytes = need;
  return reqs;
}

Error GemmWorkload::validate() const { return check_gemm_spec(spec_); }

WorkloadResult GemmWorkload::run(cluster::Cluster& cluster, RunContext& ctx) {
  ScopedRunControl control(cluster, ctx);
  cluster::RedmuleDriver drv(cluster);
  const GemmOperands ops = draw_gemm_operands(spec_);
  cluster::RedmuleDriver::GemmResult g = spec_.accumulate
                                             ? drv.gemm_acc(ops.x, ops.w, ops.y)
                                             : drv.gemm(ops.x, ops.w);
  WorkloadResult res;
  res.stats = g.stats;
  res.z_hash = hash_matrix(g.z);
  if (ctx.keep_outputs) res.z = std::move(g.z);
  return res;
}

// --- TiledGemmWorkload ------------------------------------------------------

std::string TiledGemmWorkload::name() const {
  return "tiled:" + shape_tag(spec_.shape);
}

ClusterRequirements TiledGemmWorkload::requirements() const {
  ClusterRequirements reqs;
  reqs.geometry = spec_.geometry;
  // The planner's own smallest aligned tile set must fit the TCDM; the L2
  // must hold the staged (DMA-padded) operands.
  const workloads::TiledGemmPlan min_plan = workloads::min_tile_plan(
      spec_.shape.m, pad_even(spec_.shape.n), pad_even(spec_.shape.k),
      spec_.accumulate, spec_.geometry);
  reqs.tcdm_bytes = min_plan.tcdm_bytes() + kTcdmSlackBytes;
  reqs.l2_bytes = min_plan.staged_l2_bytes();
  return reqs;
}

Error TiledGemmWorkload::validate() const { return check_gemm_spec(spec_); }

WorkloadResult TiledGemmWorkload::run(cluster::Cluster& cluster, RunContext& ctx) {
  ScopedRunControl control(cluster, ctx);
  cluster::RedmuleDriver drv(cluster);
  const GemmOperands ops = draw_gemm_operands(spec_);
  cluster::TiledGemmRunner runner(cluster, drv);
  cluster::TiledGemmRunner::Result r =
      runner.run(ops.x, ops.w, spec_.accumulate ? &ops.y : nullptr);
  WorkloadResult res;
  res.stats = tiled_job_stats(r.stats);
  res.z_hash = hash_matrix(r.z);
  if (ctx.keep_outputs) res.z = std::move(r.z);
  return res;
}

// --- NetworkTrainingWorkload ------------------------------------------------

std::string NetworkTrainingWorkload::name() const {
  std::string n = "network:";
  n += std::to_string(spec_.net.input_dim);
  for (uint32_t d : spec_.net.hidden) {
    n += '-';
    n += std::to_string(d);
  }
  n += "@B";
  n += std::to_string(spec_.net.batch);
  return n;
}

ClusterRequirements NetworkTrainingWorkload::requirements() const {
  // Network training steps keep activations in L2 and stream every layer
  // through the tiled pipeline: the TCDM floor is the largest lowered GEMM's
  // minimum aligned tile set, the L2 must hold the whole training layout
  // (weights both ways, per-layer activations, gradients).
  ClusterRequirements reqs;
  reqs.geometry = spec_.geometry;
  const std::vector<uint32_t> dims = spec_.net.dims();
  reqs.tcdm_bytes = cluster::NetworkRunner::min_tcdm_bytes(
                        dims, spec_.net.batch, spec_.geometry) +
                    kTcdmSlackBytes;
  reqs.l2_bytes =
      cluster::NetworkRunner::training_l2_bytes(dims, spec_.net.batch);
  return reqs;
}

Error NetworkTrainingWorkload::validate() const {
  try {
    spec_.geometry.validate();
  } catch (const redmule::Error& e) {
    return {ErrorCode::kBadConfig, std::string("invalid geometry: ") + e.what()};
  }
  if (spec_.net.batch < 1)
    return {ErrorCode::kBadConfig, "batch size must be positive"};
  if (spec_.net.input_dim < 1)
    return {ErrorCode::kBadConfig, "network input dimension must be positive"};
  for (uint32_t d : spec_.net.hidden)
    if (d < 1)
      return {ErrorCode::kBadConfig, "network layer dimensions must be positive"};
  return {};
}

std::string NetworkTrainingWorkload::template_key() const {
  std::string k = name();  // dims + batch
  k += "/geom";
  k += std::to_string(spec_.geometry.h) + "x" +
       std::to_string(spec_.geometry.l) + "x" + std::to_string(spec_.geometry.p);
  k += "/seed" + std::to_string(spec_.seed);
  return k;
}

void NetworkTrainingWorkload::stage_template(cluster::Cluster& cluster) const {
  cluster::RedmuleDriver drv(cluster);
  Xoshiro256 rng(spec_.seed);
  workloads::NetworkGraph net =
      workloads::NetworkGraph::autoencoder(spec_.net, rng);
  cluster::NetworkRunner runner(cluster, drv);
  runner.stage_training_template(net, spec_.net.batch);
}

WorkloadResult NetworkTrainingWorkload::run(cluster::Cluster& cluster,
                                            RunContext& ctx) {
  // A cold run is the template staged in place, then the warm body. Staging
  // takes no simulated time; the wall budget is pinned first so it covers it.
  RunContext job_ctx = pin_wall_budget(ctx);
  stage_template(cluster);
  return run_staged(cluster, job_ctx);
}

WorkloadResult NetworkTrainingWorkload::run_staged(cluster::Cluster& cluster,
                                                   RunContext& ctx) {
  // (net config, seed, input_seed) fully determine the inputs, so the
  // outcome is the same regardless of worker, order, cluster reuse, or
  // warm-start forking. The weights are the template's, in L2.
  ScopedRunControl control(cluster, ctx);
  cluster::RedmuleDriver drv(cluster);
  const workloads::MatrixF16 x = draw_network_input(spec_);
  cluster::NetworkRunner runner(cluster, drv);
  auto r = runner.training_step_staged(spec_.net.dims(), x, x);
  WorkloadResult res;
  res.stats.cycles = r.stats.total_cycles;
  res.stats.macs = r.stats.macs;
  for (const cluster::NetworkGemmStats& gs : r.stats.gemms) {
    res.stats.advance_cycles += gs.tiled.advance_cycles;
    res.stats.stall_cycles += gs.tiled.stall_cycles;
    res.stats.fma_ops += gs.tiled.fma_ops;
  }
  res.z_hash = hash_training_step(r.out, r.dw);
  if (ctx.keep_outputs) res.z = std::move(r.out);
  return res;
}

// --- The network family's shared definition ---------------------------------

NetworkTrainingSpec network_spec_from(const SpecArgs& args) {
  NetworkTrainingSpec spec;
  spec.net.input_dim = args.u32("in", spec.net.input_dim);
  spec.net.hidden = args.dims("hidden", spec.net.hidden);
  spec.net.batch = args.u32("batch", 1);
  spec.geometry = args.geometry("geom", core::Geometry{});
  spec.seed = args.u64("seed", 1);
  spec.lr = args.num("lr", spec.lr);
  (void)args.str("name", "");  // accepted for symmetry, unused
  return spec;
}

workloads::MatrixF16 draw_network_input(const NetworkTrainingSpec& spec) {
  if (spec.input_seed != 0) {
    Xoshiro256 rng(spec.input_seed);
    return workloads::random_matrix(spec.net.input_dim, spec.net.batch, rng);
  }
  // Continue the weight stream past the weights: random_matrix consumes one
  // next_u64() per element, so skipping them raw yields the same state.
  Xoshiro256 rng(spec.seed);
  const std::vector<uint32_t> d = spec.net.dims();
  for (size_t l = 0; l + 1 < d.size(); ++l)
    rng.discard(uint64_t{d[l]} * d[l + 1]);
  return workloads::random_matrix(spec.net.input_dim, spec.net.batch, rng);
}

NetworkInputs draw_network_inputs(const NetworkTrainingSpec& spec) {
  Xoshiro256 rng(spec.seed);
  return {workloads::NetworkGraph::autoencoder(spec.net, rng),
          draw_network_input(spec)};
}

uint64_t hash_training_step(const workloads::MatrixF16& out,
                            const std::vector<workloads::MatrixF16>& dw) {
  uint64_t h = hash_matrix(out);
  for (const workloads::MatrixF16& m : dw) h = hash_fold(h, m);
  return h;
}

// --- SpecArgs ---------------------------------------------------------------

SpecArgs SpecArgs::parse(const std::string& body) {
  SpecArgs args;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t comma = body.find(',', pos);
    const std::string item =
        body.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    pos = comma == std::string::npos ? body.size() : comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      throw TypedError(ErrorCode::kBadConfig,
                       "malformed spec item `" + item + "` (want key=value)");
    std::string key = item.substr(0, eq);
    // Duplicate keys are ambiguous, and under untrusted input a classic
    // smuggling vector (the value a validator saw vs the value a consumer
    // uses). Refuse instead of silently letting the last one win.
    if (args.kv_.count(key) != 0)
      throw TypedError(ErrorCode::kBadConfig,
                       "duplicate spec key `" + key + "`");
    args.kv_[std::move(key)] = Entry{item.substr(eq + 1), false};
  }
  return args;
}

std::string SpecArgs::str(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  it->second.consumed = true;
  return it->second.value;
}

uint64_t SpecArgs::u64(const std::string& key, uint64_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  it->second.consumed = true;
  const std::string& v = it->second.value;
  uint64_t out = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || p != v.data() + v.size())
    throw TypedError(ErrorCode::kBadConfig,
                     "spec key `" + key + "`: `" + v + "` is not an integer");
  return out;
}

uint32_t SpecArgs::u32(const std::string& key, uint32_t def) const {
  const uint64_t v = u64(key, def);
  if (v > UINT32_MAX)
    throw TypedError(ErrorCode::kBadConfig,
                     "spec key `" + key + "` exceeds 32 bits");
  return static_cast<uint32_t>(v);
}

double SpecArgs::num(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  it->second.consumed = true;
  const std::string& v = it->second.value;
  try {
    size_t used = 0;
    const double out = std::stod(v, &used);
    if (used == v.size()) return out;
  } catch (const std::exception&) {
    // stod's invalid_argument/out_of_range fall through to the typed throw.
  }
  throw TypedError(ErrorCode::kBadConfig,
                   "spec key `" + key + "`: `" + v + "` is not a number");
}

bool SpecArgs::flag(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  it->second.consumed = true;
  const std::string& v = it->second.value;
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  throw TypedError(ErrorCode::kBadConfig,
                   "spec key `" + key + "`: `" + v + "` is not a boolean");
}

core::Geometry SpecArgs::geometry(const std::string& key,
                                  core::Geometry def) const {
  const std::string v = str(key, "");
  if (v.empty()) return def;
  unsigned parts[3] = {0, 0, 0};
  size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    const size_t x = v.find('x', pos);
    const bool last = i == 2;
    if ((x == std::string::npos) != last)
      throw TypedError(ErrorCode::kBadConfig,
                       "spec key `" + key + "`: `" + v + "` is not HxLxP");
    const std::string part =
        v.substr(pos, last ? std::string::npos : x - pos);
    const auto [p, ec] =
        std::from_chars(part.data(), part.data() + part.size(), parts[i]);
    if (ec != std::errc{} || p != part.data() + part.size())
      throw TypedError(ErrorCode::kBadConfig,
                       "spec key `" + key + "`: `" + v + "` is not HxLxP");
    pos = x + 1;
  }
  return core::Geometry{parts[0], parts[1], parts[2]};
}

std::vector<uint32_t> SpecArgs::dims(const std::string& key,
                                     std::vector<uint32_t> def) const {
  const std::string v = str(key, "");
  if (v.empty()) return def;
  std::vector<uint32_t> out;
  size_t pos = 0;
  while (pos <= v.size()) {
    const size_t dash = v.find('-', pos);
    const std::string part =
        v.substr(pos, dash == std::string::npos ? std::string::npos : dash - pos);
    uint32_t d = 0;
    const auto [p, ec] =
        std::from_chars(part.data(), part.data() + part.size(), d);
    if (ec != std::errc{} || p != part.data() + part.size())
      throw TypedError(ErrorCode::kBadConfig, "spec key `" + key + "`: `" + v +
                                                  "` is not a - separated "
                                                  "dimension list");
    out.push_back(d);
    if (dash == std::string::npos) break;
    pos = dash + 1;
  }
  return out;
}

void SpecArgs::require_all_consumed(const std::string& kind) const {
  for (const auto& [key, entry] : kv_)
    if (!entry.consumed)
      throw TypedError(ErrorCode::kBadConfig, "workload kind `" + kind +
                                                  "` does not understand spec "
                                                  "key `" +
                                                  key + "`");
}

// --- WorkloadRegistry -------------------------------------------------------

namespace {

GemmSpec gemm_spec_from(const SpecArgs& args) {
  GemmSpec spec;
  spec.shape.m = args.u32("m", 0);
  spec.shape.n = args.u32("n", 0);
  spec.shape.k = args.u32("k", 0);
  spec.shape.name = args.str("name", "");
  spec.geometry = args.geometry("geom", core::Geometry{});
  spec.seed = args.u64("seed", 1);
  spec.accumulate = args.flag("acc", false);
  return spec;
}

void register_builtins(WorkloadRegistry& reg) {
  reg.add("gemm", [](const SpecArgs& args) -> std::unique_ptr<Workload> {
    GemmSpec spec = gemm_spec_from(args);
    args.require_all_consumed("gemm");
    return std::make_unique<GemmWorkload>(std::move(spec));
  });
  reg.add("tiled", [](const SpecArgs& args) -> std::unique_ptr<Workload> {
    GemmSpec spec = gemm_spec_from(args);
    args.require_all_consumed("tiled");
    return std::make_unique<TiledGemmWorkload>(std::move(spec));
  });
  reg.add("network", [](const SpecArgs& args) -> std::unique_ptr<Workload> {
    NetworkTrainingSpec spec = network_spec_from(args);
    spec.input_seed = args.u64("input_seed", 0);
    spec.warm = args.flag("warm", false);
    args.require_all_consumed("network");
    return std::make_unique<NetworkTrainingWorkload>(std::move(spec));
  });
}

}  // namespace

WorkloadRegistry& WorkloadRegistry::global() {
  static WorkloadRegistry* reg = [] {
    auto* r = new WorkloadRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void WorkloadRegistry::add(const std::string& kind, Factory factory) {
  std::lock_guard<std::mutex> l(m_);
  factories_[kind] = std::move(factory);
}

std::unique_ptr<Workload> WorkloadRegistry::create(const std::string& spec) const {
  // Trust-boundary checks before the string is parsed or echoed anywhere:
  // the serving front-end hands this function raw client bytes. Bound the
  // length first, then refuse NUL and other control bytes -- no legitimate
  // spec contains them, and they are exactly what corrupts logs, truncates
  // C-string consumers, and smuggles past naive validators.
  if (spec.size() > kMaxSpecBytes)
    throw TypedError(ErrorCode::kBadConfig,
                     "spec string exceeds " + std::to_string(kMaxSpecBytes) +
                         " bytes (got " + std::to_string(spec.size()) + ")");
  for (const char c : spec)
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f)
      throw TypedError(ErrorCode::kBadConfig,
                       "spec string contains control byte 0x" + [c] {
                         char buf[3];
                         std::snprintf(buf, sizeof(buf), "%02x",
                                       static_cast<unsigned char>(c));
                         return std::string(buf);
                       }());
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  Factory factory;
  {
    std::lock_guard<std::mutex> l(m_);
    const auto it = factories_.find(kind);
    if (it == factories_.end()) {
      std::string known;
      for (const auto& [k, f] : factories_) known += (known.empty() ? "" : ", ") + k;
      throw TypedError(ErrorCode::kBadConfig, "unknown workload kind `" + kind +
                                                  "` (registered: " + known + ")");
    }
    factory = it->second;
  }
  const SpecArgs args =
      SpecArgs::parse(colon == std::string::npos ? "" : spec.substr(colon + 1));
  return factory(args);
}

std::vector<std::string> WorkloadRegistry::kinds() const {
  std::lock_guard<std::mutex> l(m_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [k, f] : factories_) out.push_back(k);
  return out;
}

}  // namespace redmule::api
