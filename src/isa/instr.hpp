/// \file instr.hpp
/// \brief Instruction set of the cluster-core model.
///
/// The paper's software baseline runs an FP16 matmul kernel on 8 RI5CY
/// (CV32E40P) cores with PULP ISA extensions. This model interprets a
/// decoded instruction form (no binary encoding -- the timing model does not
/// depend on it) covering the subset those kernels need:
///  - RV32IM integer ALU, loads/stores, branches, jumps;
///  - Xpulp hardware loops (lp.setup) and post-increment loads/stores;
///  - RV32 Zfh-style scalar FP16 ops (flh/fsh, fadd.h, fmul.h, fmadd.h, ...)
///    executed bit-accurately by the fp16 soft-float library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace redmule::isa {

enum class Opcode : uint8_t {
  // Integer ALU (register-register)
  kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu, kMul, kDiv, kRem,
  // Integer ALU (immediate)
  kAddi, kAndi, kOri, kXori, kSlli, kSrli, kSrai, kSlti, kSltiu, kLui,
  // Memory (integer register file)
  kLw, kLh, kLhu, kSw, kSh,
  kLwPost, kLhPost, kLhuPost, kSwPost, kShPost,  // Xpulp p.lw rd, imm(rs1!)
  // Memory (FP16 register file)
  kFlh, kFsh, kFlhPost, kFshPost,
  // Control flow
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu, kJal, kJalr,
  // Xpulp hardware loop: lp.setup rs1 (iteration count), imm = end pc
  kLpSetup,
  // FP16 arithmetic (Zfh-like, all through the soft-float core)
  kFaddH, kFsubH, kFmulH, kFmaddH, kFmsubH, kFminH, kFmaxH,
  kFmvHX,  ///< fmv.h.x: move low 16 bits of integer reg into FP reg
  kFmvXH,  ///< fmv.x.h: move FP16 bits into integer reg (zero-extended)
  // Misc
  kNop,
  kHalt,  ///< end of kernel (ecall-style)
};

/// Decoded instruction. Field use depends on the opcode; unused fields are 0.
struct Instr {
  Opcode op = Opcode::kNop;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  uint8_t rs3 = 0;      ///< FMA third operand
  int32_t imm = 0;      ///< immediate / byte offset / branch target (instr index)
  std::string text;     ///< original assembly line, for debugging
  friend bool operator==(const Instr&, const Instr&) = default;
};

/// A loaded kernel: instructions plus the label table (for diagnostics).
struct Program {
  std::vector<Instr> instrs;
  std::vector<std::pair<std::string, uint32_t>> labels;

  bool empty() const { return instrs.empty(); }
  size_t size() const { return instrs.size(); }
  friend bool operator==(const Program&, const Program&) = default;
};

}  // namespace redmule::isa
