/// \file core.hpp
/// \brief Cycle-level model of one cluster RISC-V core (RI5CY-class).
///
/// In-order, single-issue, one instruction per cycle unless stalled by:
///  - a TCDM bank conflict (lost log-branch arbitration -> retry);
///  - a read-after-write hazard on a load result (1-cycle load-use bubble);
///  - the FPU latency chain (FP16 results ready `fpu_latency` cycles after
///    issue; the FPU itself is pipelined);
///  - a taken branch (1 flush cycle, RI5CY-style).
/// Hardware loops (Xpulp lp.setup) execute with zero branch overhead, and
/// post-increment memory ops fold the pointer update into the access --
/// both are what makes the paper's optimized software baseline as fast as
/// it is.
///
/// Instructions come from an ideal instruction memory (the cluster's shared
/// I$ is assumed warm, as in the paper's steady-state measurements).
#pragma once

#include <array>
#include <cstdint>

#include "fp16/float16.hpp"
#include "isa/instr.hpp"
#include "isa/periph.hpp"
#include "mem/hci.hpp"
#include "sim/simulator.hpp"

namespace redmule::isa {

struct CoreConfig {
  unsigned hci_port = 0;      ///< log-branch port index of this core
  unsigned fpu_latency = 3;   ///< FP16 op result latency (FPnew, shared FPU)
  unsigned load_latency = 2;  ///< register ready N cycles after issue (1 bubble)
  unsigned branch_penalty = 1;///< extra cycles for a taken branch
  /// Idle cycles before the first instruction after load_program. Models the
  /// cluster event unit's wake-up skew; it also keeps identical kernels on
  /// different cores from phase-locking into worst-case bank-conflict
  /// patterns (the real cluster decorrelates the same way).
  unsigned start_delay = 0;
};

struct CoreStats {
  uint64_t cycles = 0;
  uint64_t retired = 0;
  uint64_t mem_stalls = 0;    ///< cycles lost to TCDM contention
  uint64_t raw_stalls = 0;    ///< cycles lost to operand hazards
  uint64_t branch_stalls = 0;
  uint64_t fp_ops = 0;
  friend bool operator==(const CoreStats&, const CoreStats&) = default;
};

class RiscvCore : public sim::Clocked {
 public:
  RiscvCore(mem::Hci& hci, CoreConfig cfg);

  /// Maps a peripheral window: lw/sw to [base, base+size) bypass the TCDM
  /// and access \p port with a fixed latency (the peripheral interconnect).
  void attach_periph(PeriphPort* port, uint32_t base, uint32_t size);

  /// Loads a kernel and resets the architectural state; the core starts
  /// running on the next tick.
  void load_program(const Program& prog);
  /// Argument/diagnostic access to the integer register file.
  void set_reg(uint8_t reg, uint32_t value);
  uint32_t reg(uint8_t r) const { return x_[r]; }
  fp16::Float16 freg(uint8_t r) const { return f_[r]; }

  bool halted() const { return halted_; }
  const CoreStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CoreStats{}; }

  /// In-place re-initialization to the freshly-constructed state (halted, no
  /// program, clean register file/scoreboard/stats). The peripheral mapping
  /// is wiring, not state, and survives. Part of the cluster reset path.
  void reset();

  void tick() override;
  void commit() override;
  /// A halted core only burns host time: tick() is a no-op until the next
  /// load_program() (which resets the scoreboard, so the frozen internal
  /// cycle stamp is unobservable).
  bool is_idle() const override { return halted_; }

 private:
  struct PendingMem {
    bool active = false;
    Instr ins;          ///< the memory instruction awaiting its grant
    uint32_t addr = 0;
  };

  void execute(const Instr& ins);
  void do_mem(const Instr& ins);
  void advance_pc_sequential();
  void writeback_mem(const Instr& ins, uint32_t addr, uint32_t rdata);
  bool sources_ready(const Instr& ins) const;
  void set_x(uint8_t rd, uint32_t v) {
    if (rd != 0) x_[rd] = v;
  }

  mem::Hci& hci_;
  CoreConfig cfg_;
  PeriphPort* periph_ = nullptr;
  uint32_t periph_base_ = 0;
  uint32_t periph_size_ = 0;

  Program prog_;
  uint32_t pc_ = 0;  ///< instruction index
  std::array<uint32_t, 32> x_{};
  std::array<fp16::Float16, 32> f_{};
  /// Cycle at which each register's value becomes usable (scoreboard);
  /// index 0..31 = integer, 32..63 = FP.
  std::array<uint64_t, 64> ready_{};

  struct HwLoop {
    bool active = false;
    uint32_t start = 0;
    uint32_t end = 0;   ///< exclusive
    uint32_t count = 0;
    friend bool operator==(const HwLoop&, const HwLoop&) = default;
  };
  std::array<HwLoop, 2> loops_;  ///< Xpulp supports 2 nesting levels

  PendingMem pending_;
  unsigned stall_cycles_left_ = 0;
  bool halted_ = true;
  uint64_t now_ = 0;

  CoreStats stats_;

 public:
  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  // Declared after the private members so the nested struct can use the
  // private HwLoop type; external holders treat it as an opaque value.
  /// Full architectural state of a halted core: program, pc, register files,
  /// scoreboard, hardware loops and statistics. A halted core has no pending
  /// memory access (a pending grant stalls retirement of the halt), so the
  /// transient side is empty by construction.
  struct State {
    Program prog;
    uint32_t pc = 0;
    std::array<uint32_t, 32> x{};
    std::array<fp16::Float16, 32> f{};
    std::array<uint64_t, 64> ready{};
    std::array<HwLoop, 2> loops{};
    unsigned stall_cycles_left = 0;
    bool halted = true;
    uint64_t now = 0;
    CoreStats stats;
    /// Field by field, FP registers by encoding: Float16's own == is IEEE
    /// eq, under which +0 equals -0 and a NaN equals nothing.
    friend bool operator==(const State& a, const State& b);
  };
  /// Requires halted(): a running core is mid-pipeline and not capturable.
  State save_state() const;
  void restore_state(const State& s);
};

}  // namespace redmule::isa
