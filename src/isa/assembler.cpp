#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "common/check.hpp"

namespace redmule::isa {
namespace {

[[noreturn]] void fail(size_t line_no, const std::string& line, const std::string& msg) {
  throw Error("assembler: line " + std::to_string(line_no) + ": " + msg + " in `" +
              line + "`");
}

std::string strip(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Splits "a, b, c" into trimmed operand tokens.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  const std::string last = strip(cur);
  if (!last.empty()) out.push_back(last);
  return out;
}

/// "<prefix><i>", built by appending (GCC 12 reports a false -Wrestrict for
/// `literal + std::string` concatenation).
std::string numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

const std::unordered_map<std::string, uint8_t>& int_reg_names() {
  static const std::unordered_map<std::string, uint8_t> m = [] {
    std::unordered_map<std::string, uint8_t> r;
    for (int i = 0; i < 32; ++i) r[numbered("x", i)] = static_cast<uint8_t>(i);
    r["zero"] = 0; r["ra"] = 1; r["sp"] = 2; r["gp"] = 3; r["tp"] = 4;
    r["t0"] = 5; r["t1"] = 6; r["t2"] = 7;
    r["s0"] = 8; r["fp"] = 8; r["s1"] = 9;
    for (int i = 0; i < 8; ++i) r[numbered("a", i)] = static_cast<uint8_t>(10 + i);
    for (int i = 2; i < 12; ++i) r[numbered("s", i)] = static_cast<uint8_t>(16 + i);
    r["t3"] = 28; r["t4"] = 29; r["t5"] = 30; r["t6"] = 31;
    return r;
  }();
  return m;
}

const std::unordered_map<std::string, uint8_t>& fp_reg_names() {
  static const std::unordered_map<std::string, uint8_t> m = [] {
    std::unordered_map<std::string, uint8_t> r;
    for (int i = 0; i < 32; ++i) r[numbered("f", i)] = static_cast<uint8_t>(i);
    for (int i = 0; i < 8; ++i) r[numbered("ft", i)] = static_cast<uint8_t>(i);
    r["fs0"] = 8; r["fs1"] = 9;
    for (int i = 0; i < 8; ++i) r[numbered("fa", i)] = static_cast<uint8_t>(10 + i);
    for (int i = 2; i < 12; ++i) r[numbered("fs", i)] = static_cast<uint8_t>(16 + i);
    r["ft8"] = 28; r["ft9"] = 29; r["ft10"] = 30; r["ft11"] = 31;
    return r;
  }();
  return m;
}

struct MemOperand {
  int32_t offset = 0;
  uint8_t base = 0;
  bool post_increment = false;
};

int64_t parse_imm_or_fail(const std::string& tok, size_t line_no, const std::string& line) {
  try {
    size_t pos = 0;
    const int64_t v = std::stoll(tok, &pos, 0);
    if (pos != tok.size()) fail(line_no, line, "bad immediate `" + tok + "`");
    return v;
  } catch (const std::exception&) {
    fail(line_no, line, "bad immediate `" + tok + "`");
  }
}

/// Parses "imm(reg)" or "imm(reg!)".
MemOperand parse_mem(const std::string& tok, size_t line_no, const std::string& line) {
  const size_t open = tok.find('(');
  const size_t close = tok.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open)
    fail(line_no, line, "bad memory operand `" + tok + "`");
  MemOperand m;
  const std::string off = strip(tok.substr(0, open));
  m.offset = off.empty()
                 ? 0
                 : static_cast<int32_t>(parse_imm_or_fail(off, line_no, line));
  std::string reg = strip(tok.substr(open + 1, close - open - 1));
  if (!reg.empty() && reg.back() == '!') {
    m.post_increment = true;
    reg = strip(reg.substr(0, reg.size() - 1));
  }
  auto it = int_reg_names().find(lower(reg));
  if (it == int_reg_names().end()) fail(line_no, line, "unknown register `" + reg + "`");
  m.base = it->second;
  return m;
}

}  // namespace

uint8_t parse_int_reg(const std::string& name) {
  auto it = int_reg_names().find(lower(strip(name)));
  REDMULE_REQUIRE(it != int_reg_names().end(), "unknown integer register: " + name);
  return it->second;
}

uint8_t parse_fp_reg(const std::string& name) {
  auto it = fp_reg_names().find(lower(strip(name)));
  REDMULE_REQUIRE(it != fp_reg_names().end(), "unknown FP register: " + name);
  return it->second;
}

Program assemble(const std::string& source) {
  // Pass 1: strip comments, collect labels and raw instruction lines.
  struct RawLine {
    size_t line_no;
    std::string text;
  };
  std::vector<RawLine> raw;
  std::unordered_map<std::string, uint32_t> labels;
  {
    std::istringstream in(source);
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      std::string s = strip(line);
      // A line may carry "label: instr".
      while (true) {
        const size_t colon = s.find(':');
        if (colon == std::string::npos) break;
        const std::string label = strip(s.substr(0, colon));
        if (label.empty() || label.find(' ') != std::string::npos)
          fail(line_no, line, "bad label");
        if (labels.count(label) != 0) fail(line_no, line, "duplicate label `" + label + "`");
        labels[label] = static_cast<uint32_t>(raw.size());
        s = strip(s.substr(colon + 1));
      }
      if (!s.empty()) raw.push_back({line_no, s});
    }
  }

  auto label_or_imm = [&](const std::string& tok, size_t line_no,
                          const std::string& line) -> int32_t {
    auto it = labels.find(tok);
    if (it != labels.end()) return static_cast<int32_t>(it->second);
    return static_cast<int32_t>(parse_imm_or_fail(tok, line_no, line));
  };

  // Pass 2: encode.
  Program prog;
  for (const RawLine& rl : raw) {
    const std::string& s = rl.text;
    const size_t sp = s.find_first_of(" \t");
    const std::string mnem = lower(sp == std::string::npos ? s : s.substr(0, sp));
    const std::vector<std::string> ops =
        sp == std::string::npos ? std::vector<std::string>{} : split_operands(s.substr(sp));

    Instr ins;
    ins.text = s;
    auto need = [&](size_t n) {
      if (ops.size() != n)
        fail(rl.line_no, s, "expected " + std::to_string(n) + " operands");
    };
    auto ireg = [&](size_t i) {
      auto it = int_reg_names().find(lower(ops[i]));
      if (it == int_reg_names().end())
        fail(rl.line_no, s, "unknown register `" + ops[i] + "`");
      return it->second;
    };
    auto freg = [&](size_t i) {
      auto it = fp_reg_names().find(lower(ops[i]));
      if (it == fp_reg_names().end())
        fail(rl.line_no, s, "unknown FP register `" + ops[i] + "`");
      return it->second;
    };
    auto imm = [&](size_t i) {
      return static_cast<int32_t>(parse_imm_or_fail(ops[i], rl.line_no, s));
    };

    // Integer register-register ops.
    static const std::unordered_map<std::string, Opcode> rr = {
        {"add", Opcode::kAdd}, {"sub", Opcode::kSub}, {"and", Opcode::kAnd},
        {"or", Opcode::kOr},   {"xor", Opcode::kXor}, {"sll", Opcode::kSll},
        {"srl", Opcode::kSrl}, {"sra", Opcode::kSra}, {"slt", Opcode::kSlt},
        {"sltu", Opcode::kSltu}, {"mul", Opcode::kMul}, {"div", Opcode::kDiv},
        {"rem", Opcode::kRem}};
    static const std::unordered_map<std::string, Opcode> ri = {
        {"addi", Opcode::kAddi}, {"andi", Opcode::kAndi}, {"ori", Opcode::kOri},
        {"xori", Opcode::kXori}, {"slli", Opcode::kSlli}, {"srli", Opcode::kSrli},
        {"srai", Opcode::kSrai}, {"slti", Opcode::kSlti}, {"sltiu", Opcode::kSltiu}};
    static const std::unordered_map<std::string, Opcode> branches = {
        {"beq", Opcode::kBeq},  {"bne", Opcode::kBne},  {"blt", Opcode::kBlt},
        {"bge", Opcode::kBge},  {"bltu", Opcode::kBltu}, {"bgeu", Opcode::kBgeu}};

    if (auto it = rr.find(mnem); it != rr.end()) {
      need(3);
      ins.op = it->second;
      ins.rd = ireg(0);
      ins.rs1 = ireg(1);
      ins.rs2 = ireg(2);
    } else if (auto it2 = ri.find(mnem); it2 != ri.end()) {
      need(3);
      ins.op = it2->second;
      ins.rd = ireg(0);
      ins.rs1 = ireg(1);
      ins.imm = imm(2);
    } else if (auto it3 = branches.find(mnem); it3 != branches.end()) {
      need(3);
      ins.op = it3->second;
      ins.rs1 = ireg(0);
      ins.rs2 = ireg(1);
      ins.imm = label_or_imm(ops[2], rl.line_no, s);
    } else if (mnem == "lui") {
      need(2);
      ins.op = Opcode::kLui;
      ins.rd = ireg(0);
      ins.imm = imm(1);
    } else if (mnem == "li") {  // pseudo: materialize a 32-bit constant
      need(2);
      ins.op = Opcode::kAddi;
      ins.rd = ireg(0);
      ins.rs1 = 0;
      ins.imm = imm(1);
    } else if (mnem == "mv") {
      need(2);
      ins.op = Opcode::kAddi;
      ins.rd = ireg(0);
      ins.rs1 = ireg(1);
      ins.imm = 0;
    } else if (mnem == "lw" || mnem == "lh" || mnem == "lhu" || mnem == "sw" ||
               mnem == "sh" || mnem == "flh" || mnem == "fsh" || mnem == "p.lw" ||
               mnem == "p.lh" || mnem == "p.lhu" || mnem == "p.sw" || mnem == "p.sh" ||
               mnem == "p.flh" || mnem == "p.fsh") {
      need(2);
      const bool fp = mnem == "flh" || mnem == "fsh" || mnem == "p.flh" || mnem == "p.fsh";
      const MemOperand m = parse_mem(ops[1], rl.line_no, s);
      const bool pulp = mnem.rfind("p.", 0) == 0;
      const std::string base_mnem = pulp ? mnem.substr(2) : mnem;
      if (pulp != m.post_increment && pulp)
        fail(rl.line_no, s, "p.* memory ops require imm(reg!) addressing");
      if (!pulp && m.post_increment)
        fail(rl.line_no, s, "post-increment needs the p.* mnemonic");
      static const std::unordered_map<std::string, Opcode> plain = {
          {"lw", Opcode::kLw},   {"lh", Opcode::kLh},   {"lhu", Opcode::kLhu},
          {"sw", Opcode::kSw},   {"sh", Opcode::kSh},   {"flh", Opcode::kFlh},
          {"fsh", Opcode::kFsh}};
      static const std::unordered_map<std::string, Opcode> post = {
          {"lw", Opcode::kLwPost},   {"lh", Opcode::kLhPost}, {"lhu", Opcode::kLhuPost},
          {"sw", Opcode::kSwPost},   {"sh", Opcode::kShPost}, {"flh", Opcode::kFlhPost},
          {"fsh", Opcode::kFshPost}};
      const auto& tbl = pulp ? post : plain;
      auto oit = tbl.find(base_mnem);
      if (oit == tbl.end()) fail(rl.line_no, s, "unsupported memory op");
      ins.op = oit->second;
      if (fp)
        ins.rd = freg(0);
      else
        ins.rd = ireg(0);
      ins.rs1 = m.base;
      ins.imm = m.offset;
      // Stores read their data from "rd" (kept in rd for uniform decoding).
    } else if (mnem == "jal") {
      // jal rd, label | jal label (rd = ra)
      ins.op = Opcode::kJal;
      if (ops.size() == 2) {
        ins.rd = ireg(0);
        ins.imm = label_or_imm(ops[1], rl.line_no, s);
      } else if (ops.size() == 1) {
        ins.rd = 1;
        ins.imm = label_or_imm(ops[0], rl.line_no, s);
      } else {
        fail(rl.line_no, s, "jal needs 1 or 2 operands");
      }
    } else if (mnem == "j") {
      need(1);
      ins.op = Opcode::kJal;
      ins.rd = 0;
      ins.imm = label_or_imm(ops[0], rl.line_no, s);
    } else if (mnem == "jalr") {
      need(2);
      ins.op = Opcode::kJalr;
      ins.rd = ireg(0);
      ins.rs1 = ireg(1);
    } else if (mnem == "ret") {
      need(0);
      ins.op = Opcode::kJalr;
      ins.rd = 0;
      ins.rs1 = 1;
    } else if (mnem == "lp.setup") {
      need(2);
      ins.op = Opcode::kLpSetup;
      ins.rs1 = ireg(0);
      ins.imm = label_or_imm(ops[1], rl.line_no, s);
    } else if (mnem == "fadd.h" || mnem == "fsub.h" || mnem == "fmul.h" ||
               mnem == "fmin.h" || mnem == "fmax.h") {
      need(3);
      static const std::unordered_map<std::string, Opcode> f3 = {
          {"fadd.h", Opcode::kFaddH}, {"fsub.h", Opcode::kFsubH},
          {"fmul.h", Opcode::kFmulH}, {"fmin.h", Opcode::kFminH},
          {"fmax.h", Opcode::kFmaxH}};
      ins.op = f3.at(mnem);
      ins.rd = freg(0);
      ins.rs1 = freg(1);
      ins.rs2 = freg(2);
    } else if (mnem == "fmadd.h" || mnem == "fmsub.h") {
      need(4);
      ins.op = mnem == "fmadd.h" ? Opcode::kFmaddH : Opcode::kFmsubH;
      ins.rd = freg(0);
      ins.rs1 = freg(1);
      ins.rs2 = freg(2);
      ins.rs3 = freg(3);
    } else if (mnem == "fmv.h.x") {
      need(2);
      ins.op = Opcode::kFmvHX;
      ins.rd = freg(0);
      ins.rs1 = ireg(1);
    } else if (mnem == "fmv.x.h") {
      need(2);
      ins.op = Opcode::kFmvXH;
      ins.rd = ireg(0);
      ins.rs1 = freg(1);
    } else if (mnem == "nop") {
      need(0);
      ins.op = Opcode::kNop;
    } else if (mnem == "halt" || mnem == "ecall") {
      need(0);
      ins.op = Opcode::kHalt;
    } else {
      fail(rl.line_no, s, "unknown mnemonic `" + mnem + "`");
    }
    prog.instrs.push_back(std::move(ins));
  }

  // Total order (address, then name): the map's hash order must never leak
  // into the program listing, and sorting by address alone would tie-break
  // aliased labels nondeterministically.
  prog.labels.assign(labels.begin(), labels.end());
  std::sort(prog.labels.begin(), prog.labels.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.second, a.first) < std::tie(b.second, b.first);
            });
  return prog;
}

}  // namespace redmule::isa
