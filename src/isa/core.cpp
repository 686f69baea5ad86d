#include "isa/core.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace redmule::isa {

using fp16::Float16;

namespace {
bool is_mem_op(Opcode op) {
  switch (op) {
    case Opcode::kLw: case Opcode::kLh: case Opcode::kLhu:
    case Opcode::kSw: case Opcode::kSh:
    case Opcode::kLwPost: case Opcode::kLhPost: case Opcode::kLhuPost:
    case Opcode::kSwPost: case Opcode::kShPost:
    case Opcode::kFlh: case Opcode::kFsh:
    case Opcode::kFlhPost: case Opcode::kFshPost:
      return true;
    default:
      return false;
  }
}

bool is_store(Opcode op) {
  switch (op) {
    case Opcode::kSw: case Opcode::kSh: case Opcode::kSwPost: case Opcode::kShPost:
    case Opcode::kFsh: case Opcode::kFshPost:
      return true;
    default:
      return false;
  }
}

bool is_post_increment(Opcode op) {
  switch (op) {
    case Opcode::kLwPost: case Opcode::kLhPost: case Opcode::kLhuPost:
    case Opcode::kSwPost: case Opcode::kShPost:
    case Opcode::kFlhPost: case Opcode::kFshPost:
      return true;
    default:
      return false;
  }
}

bool is_fp_mem(Opcode op) {
  return op == Opcode::kFlh || op == Opcode::kFsh || op == Opcode::kFlhPost ||
         op == Opcode::kFshPost;
}

bool is_word_mem(Opcode op) {
  return op == Opcode::kLw || op == Opcode::kSw || op == Opcode::kLwPost ||
         op == Opcode::kSwPost;
}
}  // namespace

RiscvCore::RiscvCore(mem::Hci& hci, CoreConfig cfg) : hci_(hci), cfg_(cfg) {
  REDMULE_REQUIRE(cfg.hci_port < hci.config().n_log_ports, "core port out of range");
}

void RiscvCore::attach_periph(PeriphPort* port, uint32_t base, uint32_t size) {
  REDMULE_REQUIRE((base & 3u) == 0 && (size & 3u) == 0, "periph window alignment");
  periph_ = port;
  periph_base_ = base;
  periph_size_ = size;
}

void RiscvCore::load_program(const Program& prog) {
  prog_ = prog;
  pc_ = 0;
  x_.fill(0);
  f_.fill(Float16{});
  ready_.fill(0);
  loops_ = {};
  pending_ = PendingMem{};
  stall_cycles_left_ = cfg_.start_delay;
  halted_ = prog_.empty();
}

void RiscvCore::reset() {
  prog_ = Program{};
  pc_ = 0;
  x_.fill(0);
  f_.fill(Float16{});
  ready_.fill(0);
  loops_ = {};
  pending_ = PendingMem{};
  stall_cycles_left_ = 0;
  halted_ = true;
  now_ = 0;
  stats_ = CoreStats{};
}

RiscvCore::State RiscvCore::save_state() const {
  REDMULE_REQUIRE(halted_, "core snapshot requires a halted core");
  REDMULE_ASSERT(!pending_.active);
  State s;
  s.prog = prog_;
  s.pc = pc_;
  s.x = x_;
  s.f = f_;
  s.ready = ready_;
  s.loops = loops_;
  s.stall_cycles_left = stall_cycles_left_;
  s.halted = halted_;
  s.now = now_;
  s.stats = stats_;
  return s;
}

void RiscvCore::restore_state(const State& s) {
  reset();
  prog_ = s.prog;
  pc_ = s.pc;
  x_ = s.x;
  f_ = s.f;
  ready_ = s.ready;
  loops_ = s.loops;
  stall_cycles_left_ = s.stall_cycles_left;
  halted_ = s.halted;
  now_ = s.now;
  stats_ = s.stats;
}

bool operator==(const RiscvCore::State& a, const RiscvCore::State& b) {
  const auto bits = [](fp16::Float16 v) { return v.bits(); };
  return a.prog == b.prog && a.pc == b.pc && a.x == b.x &&
         std::ranges::equal(a.f, b.f, {}, bits, bits) && a.ready == b.ready &&
         a.loops == b.loops && a.stall_cycles_left == b.stall_cycles_left &&
         a.halted == b.halted && a.now == b.now && a.stats == b.stats;
}

void RiscvCore::set_reg(uint8_t reg, uint32_t value) {
  REDMULE_ASSERT(reg < 32);
  if (reg != 0) x_[reg] = value;
}

bool RiscvCore::sources_ready(const Instr& ins) const {
  auto rdy = [&](unsigned idx) { return ready_[idx] <= now_; };
  auto xrdy = [&](uint8_t r) { return rdy(r); };
  auto frdy = [&](uint8_t r) { return rdy(32u + r); };
  switch (ins.op) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kAnd: case Opcode::kOr:
    case Opcode::kXor: case Opcode::kSll: case Opcode::kSrl: case Opcode::kSra:
    case Opcode::kSlt: case Opcode::kSltu: case Opcode::kMul: case Opcode::kDiv:
    case Opcode::kRem:
      return xrdy(ins.rs1) && xrdy(ins.rs2);
    case Opcode::kAddi: case Opcode::kAndi: case Opcode::kOri: case Opcode::kXori:
    case Opcode::kSlli: case Opcode::kSrli: case Opcode::kSrai: case Opcode::kSlti:
    case Opcode::kSltiu: case Opcode::kJalr:
      return xrdy(ins.rs1);
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt: case Opcode::kBge:
    case Opcode::kBltu: case Opcode::kBgeu:
      return xrdy(ins.rs1) && xrdy(ins.rs2);
    case Opcode::kLw: case Opcode::kLh: case Opcode::kLhu:
    case Opcode::kLwPost: case Opcode::kLhPost: case Opcode::kLhuPost:
    case Opcode::kFlh: case Opcode::kFlhPost:
      return xrdy(ins.rs1);
    case Opcode::kSw: case Opcode::kSh: case Opcode::kSwPost: case Opcode::kShPost:
      return xrdy(ins.rs1) && xrdy(ins.rd);
    case Opcode::kFsh: case Opcode::kFshPost:
      return xrdy(ins.rs1) && frdy(ins.rd);
    case Opcode::kLpSetup:
      return xrdy(ins.rs1);
    case Opcode::kFaddH: case Opcode::kFsubH: case Opcode::kFmulH:
    case Opcode::kFminH: case Opcode::kFmaxH:
      return frdy(ins.rs1) && frdy(ins.rs2);
    case Opcode::kFmaddH: case Opcode::kFmsubH:
      return frdy(ins.rs1) && frdy(ins.rs2) && frdy(ins.rs3);
    case Opcode::kFmvHX:
      return xrdy(ins.rs1);
    case Opcode::kFmvXH:
      return frdy(ins.rs1);
    default:
      return true;
  }
}

void RiscvCore::tick() {
  ++now_;
  if (halted_) return;
  ++stats_.cycles;

  if (stall_cycles_left_ > 0) {
    --stall_cycles_left_;
    return;
  }
  if (pending_.active) {
    // Retry the memory request that lost arbitration.
    do_mem(pending_.ins);
    return;
  }
  REDMULE_ASSERT(pc_ < prog_.size());
  const Instr& ins = prog_.instrs[pc_];
  if (!sources_ready(ins)) {
    ++stats_.raw_stalls;
    return;
  }
  if (is_mem_op(ins.op)) {
    const uint32_t addr = x_[ins.rs1] + (is_post_increment(ins.op) ? 0 : ins.imm);
    if (periph_ != nullptr && addr >= periph_base_ &&
        addr < periph_base_ + periph_size_) {
      // Peripheral-interconnect access: word-only, un-arbitrated, and one
      // extra cycle of latency vs a TCDM hit.
      REDMULE_ASSERT_MSG(is_word_mem(ins.op), "periph accesses must be 32-bit");
      if (is_store(ins.op)) {
        periph_->write(addr - periph_base_, x_[ins.rd]);
      } else {
        set_x(ins.rd, periph_->read(addr - periph_base_));
        ready_[ins.rd] = now_ + cfg_.load_latency;
      }
      if (is_post_increment(ins.op)) set_x(ins.rs1, x_[ins.rs1] + ins.imm);
      stall_cycles_left_ = 1;
      ++stats_.retired;
      advance_pc_sequential();
      return;
    }
    pending_.active = true;
    pending_.ins = ins;
    pending_.addr = addr;
    do_mem(ins);
    return;
  }
  execute(ins);
}

void RiscvCore::do_mem(const Instr& ins) {
  const uint32_t addr = pending_.addr;
  const bool word = is_word_mem(ins.op);
  REDMULE_ASSERT_MSG((addr & (word ? 3u : 1u)) == 0, "misaligned access");
  mem::LogRequest req;
  req.addr = addr & ~3u;
  if (is_store(ins.op)) {
    req.we = true;
    if (word) {
      req.wdata = x_[ins.rd];
      req.be = 0xF;
    } else {
      const unsigned hw = (addr >> 1) & 1;
      const uint16_t data = is_fp_mem(ins.op)
                                ? f_[ins.rd].bits()
                                : static_cast<uint16_t>(x_[ins.rd] & 0xFFFF);
      req.wdata = static_cast<uint32_t>(data) << (16 * hw);
      req.be = static_cast<uint8_t>(0x3u << (2 * hw));
    }
  }
  hci_.post_log(cfg_.hci_port, req);
}

void RiscvCore::writeback_mem(const Instr& ins, uint32_t addr, uint32_t rdata) {
  if (!is_store(ins.op)) {
    if (is_word_mem(ins.op)) {
      set_x(ins.rd, rdata);
      ready_[ins.rd] = now_ + cfg_.load_latency;
    } else {
      const unsigned hw = (addr >> 1) & 1;
      const uint16_t half = static_cast<uint16_t>(rdata >> (16 * hw));
      if (is_fp_mem(ins.op)) {
        f_[ins.rd] = Float16::from_bits(half);
        ready_[32u + ins.rd] = now_ + cfg_.load_latency;
      } else if (ins.op == Opcode::kLh || ins.op == Opcode::kLhPost) {
        set_x(ins.rd, static_cast<uint32_t>(sign_extend(half, 16)));
        ready_[ins.rd] = now_ + cfg_.load_latency;
      } else {  // lhu
        set_x(ins.rd, half);
        ready_[ins.rd] = now_ + cfg_.load_latency;
      }
    }
  }
  if (is_post_increment(ins.op)) set_x(ins.rs1, x_[ins.rs1] + ins.imm);
}

void RiscvCore::advance_pc_sequential() {
  // Advance past a non-branch instruction, honoring hardware-loop ends.
  uint32_t next = pc_ + 1;
  for (int lvl = 1; lvl >= 0; --lvl) {
    HwLoop& lp = loops_[lvl];
    if (lp.active && pc_ + 1 == lp.end) {
      if (lp.count > 1) {
        --lp.count;
        next = lp.start;
      } else {
        lp.active = false;
      }
      break;
    }
  }
  pc_ = next;
}

void RiscvCore::commit() {
  if (!pending_.active) return;
  const mem::LogResult& res = hci_.log_result_now(cfg_.hci_port);
  if (!res.granted) {
    ++stats_.mem_stalls;
    return;
  }
  writeback_mem(pending_.ins, pending_.addr, res.rdata);
  pending_.active = false;
  ++stats_.retired;
  advance_pc_sequential();
}

void RiscvCore::execute(const Instr& ins) {
  uint32_t next = pc_ + 1;
  bool taken = false;
  const uint32_t a = x_[ins.rs1];
  const uint32_t b = x_[ins.rs2];
  const int32_t sa = static_cast<int32_t>(a);
  const int32_t sb = static_cast<int32_t>(b);

  switch (ins.op) {
    case Opcode::kAdd: set_x(ins.rd, a + b); break;
    case Opcode::kSub: set_x(ins.rd, a - b); break;
    case Opcode::kAnd: set_x(ins.rd, a & b); break;
    case Opcode::kOr: set_x(ins.rd, a | b); break;
    case Opcode::kXor: set_x(ins.rd, a ^ b); break;
    case Opcode::kSll: set_x(ins.rd, a << (b & 31)); break;
    case Opcode::kSrl: set_x(ins.rd, a >> (b & 31)); break;
    case Opcode::kSra: set_x(ins.rd, static_cast<uint32_t>(sa >> (b & 31))); break;
    case Opcode::kSlt: set_x(ins.rd, sa < sb ? 1 : 0); break;
    case Opcode::kSltu: set_x(ins.rd, a < b ? 1 : 0); break;
    case Opcode::kMul: set_x(ins.rd, a * b); break;
    case Opcode::kDiv:
      set_x(ins.rd, b == 0 ? 0xFFFFFFFFu
                           : static_cast<uint32_t>(sb == -1 && sa == INT32_MIN
                                                       ? sa
                                                       : sa / sb));
      stall_cycles_left_ = 34;  // RI5CY serial divider
      break;
    case Opcode::kRem:
      set_x(ins.rd, b == 0 ? a
                           : static_cast<uint32_t>(sb == -1 && sa == INT32_MIN
                                                       ? 0
                                                       : sa % sb));
      stall_cycles_left_ = 34;
      break;
    case Opcode::kAddi: set_x(ins.rd, a + static_cast<uint32_t>(ins.imm)); break;
    case Opcode::kAndi: set_x(ins.rd, a & static_cast<uint32_t>(ins.imm)); break;
    case Opcode::kOri: set_x(ins.rd, a | static_cast<uint32_t>(ins.imm)); break;
    case Opcode::kXori: set_x(ins.rd, a ^ static_cast<uint32_t>(ins.imm)); break;
    case Opcode::kSlli: set_x(ins.rd, a << (ins.imm & 31)); break;
    case Opcode::kSrli: set_x(ins.rd, a >> (ins.imm & 31)); break;
    case Opcode::kSrai: set_x(ins.rd, static_cast<uint32_t>(sa >> (ins.imm & 31))); break;
    case Opcode::kSlti: set_x(ins.rd, sa < ins.imm ? 1 : 0); break;
    case Opcode::kSltiu: set_x(ins.rd, a < static_cast<uint32_t>(ins.imm) ? 1 : 0); break;
    case Opcode::kLui: set_x(ins.rd, static_cast<uint32_t>(ins.imm) << 12); break;

    case Opcode::kBeq: taken = a == b; break;
    case Opcode::kBne: taken = a != b; break;
    case Opcode::kBlt: taken = sa < sb; break;
    case Opcode::kBge: taken = sa >= sb; break;
    case Opcode::kBltu: taken = a < b; break;
    case Opcode::kBgeu: taken = a >= b; break;

    case Opcode::kJal:
      set_x(ins.rd, pc_ + 1);
      next = static_cast<uint32_t>(ins.imm);
      stall_cycles_left_ = cfg_.branch_penalty;
      stats_.branch_stalls += cfg_.branch_penalty;
      break;
    case Opcode::kJalr:
      set_x(ins.rd, pc_ + 1);
      next = a;
      stall_cycles_left_ = cfg_.branch_penalty;
      stats_.branch_stalls += cfg_.branch_penalty;
      break;

    case Opcode::kLpSetup: {
      REDMULE_REQUIRE(x_[ins.rs1] >= 1, "hardware loop count must be >= 1");
      const unsigned lvl = loops_[0].active ? 1 : 0;
      REDMULE_REQUIRE(!loops_[lvl].active, "hardware loop nesting overflow");
      loops_[lvl].active = true;
      loops_[lvl].start = pc_ + 1;
      loops_[lvl].end = static_cast<uint32_t>(ins.imm);
      loops_[lvl].count = x_[ins.rs1];
      break;
    }

    case Opcode::kFaddH:
      f_[ins.rd] = Float16::add(f_[ins.rs1], f_[ins.rs2]);
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFsubH:
      f_[ins.rd] = Float16::sub(f_[ins.rs1], f_[ins.rs2]);
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFmulH:
      f_[ins.rd] = Float16::mul(f_[ins.rs1], f_[ins.rs2]);
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFminH:
      f_[ins.rd] = Float16::min(f_[ins.rs1], f_[ins.rs2]);
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFmaxH:
      f_[ins.rd] = Float16::max(f_[ins.rs1], f_[ins.rs2]);
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFmaddH:
      f_[ins.rd] = Float16::fma(f_[ins.rs1], f_[ins.rs2], f_[ins.rs3]);
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFmsubH:
      f_[ins.rd] = Float16::fma(f_[ins.rs1], f_[ins.rs2], f_[ins.rs3].neg());
      ready_[32u + ins.rd] = now_ + cfg_.fpu_latency;
      ++stats_.fp_ops;
      break;
    case Opcode::kFmvHX:
      f_[ins.rd] = Float16::from_bits(static_cast<uint16_t>(x_[ins.rs1] & 0xFFFF));
      break;
    case Opcode::kFmvXH:
      set_x(ins.rd, f_[ins.rs1].bits());
      break;

    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      halted_ = true;
      ++stats_.retired;
      return;

    default:
      REDMULE_ASSERT_MSG(false, "unhandled opcode in execute()");
  }

  if (taken) {
    next = static_cast<uint32_t>(ins.imm);
    stall_cycles_left_ = cfg_.branch_penalty;
    stats_.branch_stalls += cfg_.branch_penalty;
  }

  // Hardware-loop back edges take priority over sequential flow (and are
  // free, which is the whole point of lp.setup).
  if (!taken && ins.op != Opcode::kJal && ins.op != Opcode::kJalr) {
    for (int lvl = 1; lvl >= 0; --lvl) {
      HwLoop& lp = loops_[lvl];
      if (lp.active && pc_ + 1 == lp.end) {
        if (lp.count > 1) {
          --lp.count;
          next = lp.start;
        } else {
          lp.active = false;
        }
        break;
      }
    }
  }

  ++stats_.retired;
  pc_ = next;
}

}  // namespace redmule::isa
