#include "cluster/cluster.hpp"

namespace redmule::cluster {

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg) {
  REDMULE_REQUIRE(cfg.n_cores >= 1 && cfg.n_cores <= 16, "1..16 cores supported");
  cfg_.geometry.validate();

  tcdm_ = std::make_unique<mem::Tcdm>(cfg_.tcdm);

  mem::HciConfig hci_cfg;
  hci_cfg.n_log_ports = cfg_.n_cores + 4;  // cores + 4 DMA ports
  hci_cfg.shallow_words = cfg_.geometry.mem_ports();
  hci_cfg.shallow_has_priority = cfg_.shallow_has_priority;
  hci_cfg.max_stall = cfg_.hci_max_stall;
  hci_ = std::make_unique<mem::Hci>(*tcdm_, hci_cfg);

  l2_ = std::make_unique<mem::L2Memory>(cfg_.l2);

  mem::DmaConfig dma_cfg;
  dma_cfg.first_log_port = cfg_.n_cores;
  dma_cfg.n_ports = 4;
  dma_cfg.max_channels = cfg_.dma_channels;
  dma_ = std::make_unique<mem::DmaEngine>(*hci_, *l2_, dma_cfg);

  redmule_ = std::make_unique<core::RedmuleEngine>(cfg_.geometry, *hci_);

  periph_ = std::make_unique<RedmulePeriph>(*redmule_);
  for (unsigned i = 0; i < cfg_.n_cores; ++i) {
    isa::CoreConfig core_cfg;
    core_cfg.hci_port = i;
    core_cfg.start_delay = 3 * i;  // event-unit wake-up skew
    cores_.push_back(std::make_unique<isa::RiscvCore>(*hci_, core_cfg));
    cores_.back()->attach_periph(periph_.get(), cfg_.periph_base, 0x100);
  }

  // Phase order: initiators (cores, DMA, RedMulE) tick before the
  // interconnect so their requests are arbitrated in the same cycle; they
  // observe grants during commit (before the Hci clears its staging).
  for (auto& c : cores_) sim_.add(c.get());
  sim_.add(dma_.get());
  sim_.add(redmule_.get());
  sim_.add(hci_.get());
}

void Cluster::install_run_control(sim::RunControl* rc) {
  sim_.set_run_control(rc);
  if (rc != nullptr)
    rc->set_dma_stall_hook(
        [this](uint64_t cycles) { dma_->inject_stall(cycles); });
}

void Cluster::reset() {
  // Order mirrors construction: storage, interconnect, initiators, kernel.
  tcdm_->reset();
  l2_->reset();
  hci_->reset();
  dma_->reset();
  redmule_->reset();
  for (auto& c : cores_) c->reset();
  sim_.reset_counters();
}

ModuleState ModuleState::save(const Cluster& cl) {
  return ModuleState{cl.sim().save_state(), cl.hci().save_state(),
                     cl.dma().save_state(), cl.redmule().save_state()};
}

void ModuleState::restore(Cluster& cl) const {
  cl.sim().restore_state(sim);
  cl.hci().restore_state(hci);
  cl.dma().restore_state(dma);
  cl.redmule().restore_state(engine);
}

}  // namespace redmule::cluster
