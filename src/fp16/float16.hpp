/// \file float16.hpp
/// \brief Bit-accurate IEEE 754 binary16 ("FP16") soft-float library.
///
/// RedMulE's datapath is built from FPnew FP16 FMA units [Mach et al., TVLSI
/// 2020]. This library reproduces that arithmetic in software so that the
/// simulated accelerator computes bit-identical results to an RTL datapath:
///  - 1 sign + 5 exponent + 10 fraction bits, bias 15;
///  - gradual underflow (subnormals), signed zero, infinities, NaNs;
///  - single-rounding fused multiply-add computed on exact significands;
///  - all five RISC-V rounding modes (RNE, RTZ, RDN, RUP, RMM);
///  - RISC-V fflags exception reporting (NV, DZ, OF, UF, NX);
///  - RISC-V NaN conventions: canonical quiet NaN 0x7E00, fmin/fmax ignore
///    one quiet NaN, signaling NaNs raise NV.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace redmule::fp16 {

/// RISC-V rounding modes (frm encoding order).
enum class RoundingMode : uint8_t {
  kRNE = 0,  ///< round to nearest, ties to even (default)
  kRTZ = 1,  ///< round toward zero
  kRDN = 2,  ///< round down (toward -inf)
  kRUP = 3,  ///< round up (toward +inf)
  kRMM = 4,  ///< round to nearest, ties away from zero ("to max magnitude")
};

/// IEEE exception flags, RISC-V fflags bit order.
struct Flags {
  bool invalid = false;       ///< NV
  bool div_by_zero = false;   ///< DZ
  bool overflow = false;      ///< OF
  bool underflow = false;     ///< UF
  bool inexact = false;       ///< NX

  void clear() { *this = Flags{}; }
  /// Packs into the RISC-V fflags layout: NV|DZ|OF|UF|NX = bits 4..0.
  uint8_t to_fflags() const {
    return static_cast<uint8_t>((invalid << 4) | (div_by_zero << 3) | (overflow << 2) |
                                (underflow << 1) | (inexact << 0));
  }
  bool any() const { return to_fflags() != 0; }
};

/// Value type wrapping a raw binary16 encoding. Trivially copyable; exactly
/// 16 bits of state so matrices of Float16 have the hardware memory layout.
class Float16 {
 public:
  constexpr Float16() = default;

  /// Reinterprets a raw encoding (no conversion).
  static constexpr Float16 from_bits(uint16_t bits) {
    Float16 f;
    f.bits_ = bits;
    return f;
  }
  constexpr uint16_t bits() const { return bits_; }

  // --- Encoding constants -------------------------------------------------
  static constexpr int kExpBits = 5;
  static constexpr int kFracBits = 10;
  static constexpr int kBias = 15;
  static constexpr int kEmax = 15;    ///< max unbiased exponent of a normal
  static constexpr int kEmin = -14;   ///< min unbiased exponent of a normal
  static constexpr uint16_t kQuietNaN = 0x7E00;     ///< RISC-V canonical NaN
  static constexpr uint16_t kPosInf = 0x7C00;
  static constexpr uint16_t kNegInf = 0xFC00;
  static constexpr uint16_t kPosZero = 0x0000;
  static constexpr uint16_t kNegZero = 0x8000;
  static constexpr uint16_t kMaxNormal = 0x7BFF;    ///< 65504
  static constexpr uint16_t kMinNormal = 0x0400;    ///< 2^-14
  static constexpr uint16_t kMinSubnormal = 0x0001; ///< 2^-24

  // --- Classification -----------------------------------------------------
  constexpr bool sign() const { return (bits_ >> 15) != 0; }
  constexpr uint16_t exp_field() const { return (bits_ >> 10) & 0x1F; }
  constexpr uint16_t frac_field() const { return bits_ & 0x3FF; }
  constexpr bool is_nan() const { return exp_field() == 0x1F && frac_field() != 0; }
  constexpr bool is_signaling_nan() const { return is_nan() && ((bits_ & 0x0200) == 0); }
  constexpr bool is_inf() const { return exp_field() == 0x1F && frac_field() == 0; }
  constexpr bool is_zero() const { return (bits_ & 0x7FFF) == 0; }
  constexpr bool is_subnormal() const { return exp_field() == 0 && frac_field() != 0; }
  constexpr bool is_normal() const { return exp_field() != 0 && exp_field() != 0x1F; }
  constexpr bool is_finite() const { return exp_field() != 0x1F; }

  /// RISC-V fclass.h 10-bit classification mask.
  uint16_t fclass() const;

  // --- Conversions (exact where the target is wider) -----------------------
  float to_float() const;
  double to_double() const;
  static Float16 from_float(float x, RoundingMode rm = RoundingMode::kRNE,
                            Flags* flags = nullptr);
  static Float16 from_double(double x, RoundingMode rm = RoundingMode::kRNE,
                             Flags* flags = nullptr);
  static Float16 from_int32(int32_t x, RoundingMode rm = RoundingMode::kRNE,
                            Flags* flags = nullptr);
  static Float16 from_uint32(uint32_t x, RoundingMode rm = RoundingMode::kRNE,
                             Flags* flags = nullptr);
  /// Converts to int32 (RISC-V fcvt.w.h semantics: NaN/overflow -> saturate + NV).
  int32_t to_int32(RoundingMode rm = RoundingMode::kRTZ, Flags* flags = nullptr) const;
  uint32_t to_uint32(RoundingMode rm = RoundingMode::kRTZ, Flags* flags = nullptr) const;

  // --- Arithmetic (single IEEE rounding each) ------------------------------
  static Float16 add(Float16 a, Float16 b, RoundingMode rm = RoundingMode::kRNE,
                     Flags* flags = nullptr);
  static Float16 sub(Float16 a, Float16 b, RoundingMode rm = RoundingMode::kRNE,
                     Flags* flags = nullptr);
  static Float16 mul(Float16 a, Float16 b, RoundingMode rm = RoundingMode::kRNE,
                     Flags* flags = nullptr);
  static Float16 div(Float16 a, Float16 b, RoundingMode rm = RoundingMode::kRNE,
                     Flags* flags = nullptr);
  static Float16 sqrt(Float16 a, RoundingMode rm = RoundingMode::kRNE,
                      Flags* flags = nullptr);
  /// Fused multiply-add: round(a*b + c) with a single rounding -- the exact
  /// operation each RedMulE datapath element performs every cycle.
  ///
  /// Dispatching entry point: when the mode is RNE and the caller does not
  /// observe flags, the result comes from the host's AVX512-FP16 unit where
  /// there is one (native_lane.cpp), else, for normal-or-zero operands,
  /// from a binary64 fast path (defined inline below; see the comment there
  /// for the proof that it rounds identically); every other case --
  /// non-RNE modes, flag-observing callers, and on the binary64 path
  /// subnormals and NaN/Inf -- takes the bit-exact soft-float core.
  static Float16 fma(Float16 a, Float16 b, Float16 c,
                     RoundingMode rm = RoundingMode::kRNE, Flags* flags = nullptr);
  /// The soft-float FMA core: unpack / exact significand arithmetic / single
  /// round_pack(). Kept callable as the bit-exact oracle the fast path is
  /// continuously cross-checked against (tests/fp16/test_hw_crosscheck.cpp).
  static Float16 fma_soft(Float16 a, Float16 b, Float16 c,
                          RoundingMode rm = RoundingMode::kRNE,
                          Flags* flags = nullptr);

  Float16 neg() const { return from_bits(static_cast<uint16_t>(bits_ ^ 0x8000)); }
  Float16 abs() const { return from_bits(static_cast<uint16_t>(bits_ & 0x7FFF)); }

  // --- Comparisons (IEEE: NaN compares unordered) ---------------------------
  static bool eq(Float16 a, Float16 b, Flags* flags = nullptr);   ///< quiet (feq.h)
  static bool lt(Float16 a, Float16 b, Flags* flags = nullptr);   ///< signaling (flt.h)
  static bool le(Float16 a, Float16 b, Flags* flags = nullptr);   ///< signaling (fle.h)
  /// RISC-V fmin/fmax: one NaN -> other operand; both NaN -> canonical NaN;
  /// sNaN input raises NV; min(+0,-0) = -0, max(+0,-0) = +0.
  static Float16 min(Float16 a, Float16 b, Flags* flags = nullptr);
  static Float16 max(Float16 a, Float16 b, Flags* flags = nullptr);

  // --- Convenience operators (RNE, flags ignored) ---------------------------
  friend Float16 operator+(Float16 a, Float16 b) { return add(a, b); }
  friend Float16 operator-(Float16 a, Float16 b) { return sub(a, b); }
  friend Float16 operator*(Float16 a, Float16 b) { return mul(a, b); }
  friend Float16 operator/(Float16 a, Float16 b) { return div(a, b); }
  Float16 operator-() const { return neg(); }
  friend bool operator==(Float16 a, Float16 b) { return eq(a, b); }
  friend bool operator!=(Float16 a, Float16 b) { return !eq(a, b); }
  friend bool operator<(Float16 a, Float16 b) { return lt(a, b); }
  friend bool operator<=(Float16 a, Float16 b) { return le(a, b); }
  friend bool operator>(Float16 a, Float16 b) { return lt(b, a); }
  friend bool operator>=(Float16 a, Float16 b) { return le(b, a); }

  /// Debug rendering, e.g. "0x3C00(1)".
  std::string to_string() const;

 private:
  uint16_t bits_ = 0;
};

static_assert(sizeof(Float16) == 2, "Float16 must have the hardware layout");

/// Shorthand used throughout the codebase.
inline Float16 f16(double x) { return Float16::from_double(x); }

/// Process-wide kill switch for the FMA fast paths (on by default): the
/// native AVX512-FP16 lane and the binary64 lane. Benches use it to measure
/// soft-core vs fast-path kernel throughput; with the fast paths disabled
/// every fma(), fma_row() and sub_scaled_row() element takes the soft-float
/// core.
/// Stored as a relaxed atomic so batch worker threads can read it while a
/// controlling thread flips it (a relaxed load compiles to a plain load on
/// every target we care about; the fast path pays nothing). Toggling while
/// jobs are in flight is still a bench-protocol error: workers may observe
/// the change mid-job.
void set_fast_fma_enabled(bool on);
bool fast_fma_enabled();

namespace detail {

extern std::atomic<bool> g_fast_fma_enabled;

/// CPUID probe for the native lane (AVX512-FP16); false on other hosts and
/// on toolchains that cannot compile the lane.
bool native_lane_detect();

/// True when this process runs FMAs on the host's AVX512-FP16 units. Probed
/// once per process; the global compile flags are unchanged, only the lane's
/// kernels (native_lane.cpp) are compiled for the feature.
inline bool native_lane() {
  static const bool has = native_lane_detect();
  return has;
}

/// The native lane's kernels (call only when native_lane() is true). RNE
/// under embedded rounding, independent of MXCSR, with every NaN result
/// canonicalised to 0x7E00: bit-identical to the soft core, element by
/// element. Float16::fma, fma_row and sub_scaled_row dispatch to them.
uint16_t native_fma(uint16_t a, uint16_t b, uint16_t c);
void native_fma_row(const Float16* x, Float16 w, const Float16* acc, Float16* out,
                    unsigned n);
void native_sub_scaled_row(Float16* w, const Float16* dw, double scale, size_t n);

/// True for every encoding the FMA fast path accepts as an operand: normals
/// and signed zeros (no subnormals, infinities or NaNs).
inline bool is_normal_or_zero(Float16 f) {
  return f.exp_field() != 0x1F && (f.exp_field() != 0 || f.frac_field() == 0);
}

/// Exact conversion of a normal-or-zero fp16 value to binary64: rebias the
/// exponent and widen the fraction (zeros keep their sign). Not valid for
/// subnormals, infinities or NaNs (the fast path excludes them).
inline double normal_to_double(Float16 f) {
  const uint64_t bits =
      f.exp_field() == 0
          ? static_cast<uint64_t>(f.sign()) << 63
          : (static_cast<uint64_t>(f.sign()) << 63) |
                ((static_cast<uint64_t>(f.exp_field()) - 15 + 1023) << 52) |
                (static_cast<uint64_t>(f.frac_field()) << 42);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// RNE-rounds a binary64 FMA sum to binary16, succeeding only when the
/// result is a *normal* fp16 or an exact zero (the exactness window of the
/// fast path). Returns false -- the caller falls back to the soft core -- for
/// results that are subnormal or (would round to) out of the normal range.
inline bool fast_pack_rne(double v, uint16_t* out) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  const int e = static_cast<int>((b >> 52) & 0x7FF) - 1023;
  if (e < Float16::kEmin || e > Float16::kEmax) {
    // An exact +-0 sum maps to the fp16 zero of the same sign: binary64 RNE
    // already applied IEEE's signed-zero rule (x + -x = +0, -0 + -0 = -0),
    // and a zero cannot come from underflow because every nonzero sum of
    // fast-path operands is a multiple of 2^-48.
    if ((b << 1) != 0) return false;
    *out = static_cast<uint16_t>((b >> 63) << 15);
    return true;
  }
  const uint64_t frac = b & ((1ull << 52) - 1);
  uint64_t kept = frac >> 42;
  const uint64_t round_bit = (frac >> 41) & 1;
  const uint64_t sticky = frac & ((1ull << 41) - 1);
  kept += round_bit & (static_cast<uint64_t>(sticky != 0) | (kept & 1));
  int ee = e;
  if (kept == (1u << Float16::kFracBits)) {  // carry out of rounding
    kept = 0;
    ++ee;
    if (ee > Float16::kEmax) return false;  // rounded up to overflow
  }
  *out = static_cast<uint16_t>(((b >> 63) << 15) |
                               (static_cast<uint64_t>(ee + Float16::kBias) << 10) |
                               kept);
  return true;
}

/// One fast-path FMA lane, a*b + c under RNE with b already widened to \p bd
/// (the caller checked b is normal or zero). Writes the fp16 bits and returns
/// true when a and c are normal or zero and the result lies in the fast
/// path's exactness window; returns false when the caller must use the soft
/// core. Shared by Float16::fma and fma_row so the fast path exists once.
inline bool fast_fma_lane(Float16 a, double bd, Float16 c, uint16_t* out) {
  if (!is_normal_or_zero(a) || !is_normal_or_zero(c)) return false;
  return fast_pack_rne(normal_to_double(a) * bd + normal_to_double(c), out);
}

}  // namespace detail

// Native-arithmetic FMA fast path, inlined into the datapath's hot loop.
// Eligibility: RNE, no flag observer, all three operands normal or zero
// (zeros matter: padded lanes multiply by zero and every first traversal
// accumulates onto +0). Why the result is bit-identical to the soft core
// (fma_soft):
//
//  1. normal-or-zero fp16 -> binary64 is exact (11-bit significands, 53-bit
//     target; zeros keep their sign, and binary64 zero-sign rules for the
//     product and sum match the soft core's under RNE);
//  2. the binary64 product is exact: the significand of a*b has <= 22 bits;
//  3. the binary64 add then performs ONE rounding, so the double holds
//     fl53(a*b + c): the exact value rounded once to 53 bits;
//  4. rounding fl53(v) to 11 bits equals rounding v to 11 bits directly
//     ("innocuous double rounding"). Failure would need the exact v to lie
//     within half a binary64 ulp (2^(e-53) at result exponent e) of an
//     11-bit rounding boundary without being on it. v = p + c is a sum on
//     the lattice generated by ulp(p) and ulp(c): ulp(p) >= 2^(ep-21) and
//     ulp(c) >= 2^(ec-10), and whenever a term is small enough not to bound
//     the lattice it is also too small to cancel the other term's distance
//     to a boundary, so any nonzero distance is >= 2^(e-34) >> 2^(e-53).
//     (Exhaustively cross-checked against the soft core in
//     tests/fp16/test_hw_crosscheck.cpp, including all rounding modes and
//     the flag-observing entry points.)
//
//  5. an exact zero sum keeps binary64's IEEE signed zero, which under RNE
//     is the soft core's rule too (equal-signed zeros keep their sign, any
//     other exact zero is +0).
//
// fast_pack_rne() bails (-> soft core) when the 53-bit result is nonzero and
// outside the fp16 *normal* range: subnormal results need the soft core's
// tininess handling, overflow its saturation logic.
//
// Hosts with AVX512-FP16 take the native lane instead, for every operand
// class (native_lane.cpp says why its bits match).
inline Float16 Float16::fma(Float16 a, Float16 b, Float16 c, RoundingMode rm,
                            Flags* flags) {
  if (detail::g_fast_fma_enabled.load(std::memory_order_relaxed) &&
      rm == RoundingMode::kRNE && flags == nullptr) {
    if (detail::native_lane())
      return from_bits(detail::native_fma(a.bits_, b.bits_, c.bits_));
    uint16_t bits;
    if (detail::is_normal_or_zero(b) &&
        detail::fast_fma_lane(a, detail::normal_to_double(b), c, &bits)) {
      return from_bits(bits);
    }
  }
  return fma_soft(a, b, c, rm, flags);
}

/// Row FMA: out[i] = fma(x[i], w, acc[i]) for i < n, RNE and no flags -- one
/// datapath column's L FMAs of one cycle, sharing the broadcast W element.
/// Bit-identical to calling fma_soft() per element (the row kernel is
/// cross-checked against it in tests/fp16/test_hw_crosscheck.cpp). On the
/// native lane the whole row is a few masked vector ops; on the binary64
/// lane the kill switch and the classification and widening of \p w are
/// hoisted out of the per-element loop, and lanes it cannot take fall back
/// to fma_soft() one element at a time. \p out may be \p acc itself (each
/// lane reads its inputs before writing), but must not overlap \p x or
/// overlap \p acc at an offset.
inline void fma_row(const Float16* x, Float16 w, const Float16* acc, Float16* out,
                    unsigned n) {
  const bool fast = detail::g_fast_fma_enabled.load(std::memory_order_relaxed);
  if (fast && detail::native_lane()) {
    detail::native_fma_row(x, w, acc, out, n);
    return;
  }
  if (!fast || !detail::is_normal_or_zero(w)) {
    for (unsigned i = 0; i < n; ++i) out[i] = Float16::fma_soft(x[i], w, acc[i]);
    return;
  }
  const double wd = detail::normal_to_double(w);
  for (unsigned i = 0; i < n; ++i) {
    uint16_t bits;
    out[i] = detail::fast_fma_lane(x[i], wd, acc[i], &bits)
                 ? Float16::from_bits(bits)
                 : Float16::fma_soft(x[i], w, acc[i]);
  }
}

/// Scaled row subtraction, the SGD weight update:
/// w[i] = sub(w[i], from_double(scale * dw[i].to_double())), RNE, no flags.
/// Runs on the native lane when it is selected and the kill switch is on;
/// otherwise every element takes the soft-float core.
inline void sub_scaled_row(Float16* w, const Float16* dw, double scale, size_t n) {
  if (detail::g_fast_fma_enabled.load(std::memory_order_relaxed) &&
      detail::native_lane()) {
    detail::native_sub_scaled_row(w, dw, scale, n);
    return;
  }
  for (size_t i = 0; i < n; ++i)
    w[i] = Float16::sub(w[i], Float16::from_double(scale * dw[i].to_double()));
}

/// ULP distance between two finite encodings (for test tolerances).
int32_t ulp_distance(Float16 a, Float16 b);

}  // namespace redmule::fp16
