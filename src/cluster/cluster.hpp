/// \file cluster.hpp
/// \brief The PULP cluster testbench top (paper Fig. 1): 8 RISC-V cores,
///        16 TCDM banks behind the HCI, a DMA engine, an L2 memory, and one
///        RedMulE instance on the HCI shallow branch.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "isa/core.hpp"
#include "isa/periph.hpp"
#include "mem/dma.hpp"
#include "mem/hci.hpp"
#include "mem/l2.hpp"
#include "mem/tcdm.hpp"
#include "sim/simulator.hpp"

namespace redmule::cluster {

class TimingCache;

struct ClusterConfig {
  unsigned n_cores = 8;
  uint32_t periph_base = 0x10200000;  ///< RedMulE register file window
  core::Geometry geometry{};          ///< RedMulE instance parameters
  mem::TcdmConfig tcdm{};
  mem::L2Config l2{};
  unsigned hci_max_stall = 8;         ///< rotation latency of the HCI arbiter
  bool shallow_has_priority = true;
  unsigned dma_channels = 2;          ///< concurrent DMA transfers (DmaConfig)

  friend bool operator==(const ClusterConfig&, const ClusterConfig&) = default;
};

/// Owns and wires all cluster components; exposes them for testbenches and
/// steps them in the correct phase order (initiators before interconnect).
class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {});

  const ClusterConfig& config() const { return cfg_; }

  mem::Tcdm& tcdm() { return *tcdm_; }
  mem::Hci& hci() { return *hci_; }
  mem::L2Memory& l2() { return *l2_; }
  mem::DmaEngine& dma() { return *dma_; }
  core::RedmuleEngine& redmule() { return *redmule_; }
  isa::RiscvCore& core(unsigned i) { return *cores_.at(i); }
  const mem::Tcdm& tcdm() const { return *tcdm_; }
  const mem::Hci& hci() const { return *hci_; }
  const mem::L2Memory& l2() const { return *l2_; }
  const mem::DmaEngine& dma() const { return *dma_; }
  const core::RedmuleEngine& redmule() const { return *redmule_; }
  const isa::RiscvCore& core(unsigned i) const { return *cores_.at(i); }
  unsigned n_cores() const { return cfg_.n_cores; }
  /// Base address of RedMulE's memory-mapped register file (cores use plain
  /// lw/sw against it; see isa/kernels.hpp redmule_offload_kernel).
  uint32_t redmule_periph_base() const { return cfg_.periph_base; }
  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }

  /// Arms (nullptr = disarms) a RunControl on this cluster: the simulator
  /// polls it at its deterministic checkpoint cadence, runner loops poll it
  /// at tile/GEMM boundaries, and kDmaStall fault events are routed into the
  /// DMA engine. The controller is owned by the caller and is NOT part of
  /// reset() -- arming is a property of the current run, not of the
  /// hardware state (see api::ScopedRunControl for the RAII wrapper).
  void install_run_control(sim::RunControl* rc);

  /// Attaches (nullptr = detaches) the timing cache that GEMM programs on
  /// this cluster (monolithic offloads and tiled GEMMs) consult
  /// (cluster/timing_cache.hpp). Not owned. Only
  /// api::ClusterPool attaches one, to the clusters it holds; like the run
  /// control it is wiring, not hardware state, so reset() keeps it.
  void set_timing_cache(TimingCache* cache) { timing_cache_ = cache; }
  TimingCache* timing_cache() const { return timing_cache_; }

  /// In-place re-initialization of the whole module hierarchy to the
  /// freshly-constructed state: memories zeroed, interconnect arbitration
  /// and statistics cleared, cores halted, RedMulE aborted and cleared, the
  /// cycle counter rewound. Everything observable afterwards is bit-equal to
  /// a new Cluster with the same config, at a fraction of the construction
  /// cost -- this is what lets pooled workers reuse cluster instances
  /// instead of rebuilding them per job (see api/pool.hpp).
  void reset();

  uint64_t cycle() const { return sim_.cycle(); }
  void step() { sim_.step(); }
  bool run_until(const std::function<bool()>& done, uint64_t max_cycles) {
    return sim_.run_until(done, max_cycles);
  }

 private:
  /// Adapts RedMulE's register file to the cores' peripheral port.
  class RedmulePeriph : public isa::PeriphPort {
   public:
    explicit RedmulePeriph(core::RedmuleEngine& engine) : engine_(engine) {}
    uint32_t read(uint32_t offset) override { return engine_.reg_read(offset); }
    void write(uint32_t offset, uint32_t value) override {
      engine_.reg_write(offset, value);
    }

   private:
    core::RedmuleEngine& engine_;
  };

  ClusterConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<mem::Tcdm> tcdm_;
  std::unique_ptr<mem::Hci> hci_;
  std::unique_ptr<mem::L2Memory> l2_;
  std::unique_ptr<mem::DmaEngine> dma_;
  std::unique_ptr<core::RedmuleEngine> redmule_;
  std::vector<std::unique_ptr<isa::RiscvCore>> cores_;
  std::unique_ptr<RedmulePeriph> periph_;
  TimingCache* timing_cache_ = nullptr;
};

/// The non-memory state of a quiescent cluster's timed modules: the kernel
/// counters, the interconnect, the DMA and the accelerator. With the two
/// memories and the cores it is a whole state::ClusterImage; alone it is the
/// whole timing state of a GEMM program (cluster/timing_cache.hpp).
struct ModuleState {
  sim::Simulator::State sim;
  mem::Hci::State hci;
  mem::DmaEngine::State dma;
  core::RedmuleEngine::State engine;

  /// Requires a quiescent cluster (every save_state() does).
  static ModuleState save(const Cluster& cl);
  void restore(Cluster& cl) const;

  friend bool operator==(const ModuleState&, const ModuleState&) = default;
};

}  // namespace redmule::cluster
