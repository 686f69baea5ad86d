/// \file native_lane.cpp
/// \brief The AVX512-FP16 FMA lane: binary16 arithmetic done by the host's
/// own FP16 units, bit-identical to the soft-float core.
///
/// Only these functions are compiled for AVX512-FP16 (function-level target
/// attribute); the rest of the build keeps its global flags, and
/// native_lane() selects the lane once per process from CPUID. Why the bits
/// match Float16::fma_soft / Float16::sub:
///  - every instruction carries embedded {rn-sae} rounding: RNE regardless of
///    MXCSR.RC, and no MXCSR flag is read or written;
///  - FP16 instructions and the FP16 <-> binary64 conversions ignore
///    MXCSR.DAZ/FTZ, so subnormal operands and results are exact IEEE
///    binary16, as in the soft core. (The SGD kernel's binary64 multiply
///    would meet DAZ only for a subnormal scale, below 2^-1022, exactly as
///    the scalar code's multiply does);
///  - the FMA is a single-rounding IEEE fusedMultiplyAdd, which has exactly
///    one correctly-rounded result;
///  - x86 NaN results keep an operand's payload or use the x86 default NaN
///    0xFE00, where RISC-V always returns 0x7E00, so every NaN result is
///    rewritten to 0x7E00.
/// tests/fp16/test_hw_crosscheck.cpp checks all three kernels against the
/// soft core over every operand class.
#include "fp16/float16.hpp"

#include <cstdlib>

#if defined(__x86_64__) &&                                      \
    ((defined(__clang__) && __clang_major__ >= 16) ||          \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 12))
#define REDMULE_FP16_NATIVE_LANE 1
#include <immintrin.h>
#if !defined(__clang__) && __GNUC__ < 13
// GCC 12 reports the _mm512_undefined_*() placeholders inside its own
// intrinsics as maybe-uninitialized (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

namespace redmule::fp16::detail {

#if defined(REDMULE_FP16_NATIVE_LANE)

#define REDMULE_FP16_TARGET \
  __attribute__((target("avx512fp16,avx512bw,avx512vl,avx512f")))

namespace {

constexpr int kRneSae = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/// Lanes [0, n) of a 32-lane chunk (all of them when n >= 32).
inline __mmask32 lane_mask(size_t n) {
  return n >= 32 ? ~__mmask32{0} : (__mmask32{1} << n) - 1;
}

/// Rewrites every NaN lane to the RISC-V canonical quiet NaN.
REDMULE_FP16_TARGET inline __m512i canonicalize_nan(__m512i v) {
  const __mmask32 nan = _mm512_cmpgt_epu16_mask(
      _mm512_and_si512(v, _mm512_set1_epi16(0x7FFF)),
      _mm512_set1_epi16(static_cast<int16_t>(Float16::kPosInf)));
  return _mm512_mask_mov_epi16(
      v, nan, _mm512_set1_epi16(static_cast<int16_t>(Float16::kQuietNaN)));
}

/// fp16(scale * dw) for eight lanes: exact widening, one binary64 multiply,
/// one rounding to binary16 -- Float16::from_double(scale * dw.to_double()).
REDMULE_FP16_TARGET inline __m128i scale_to_half(__m128i dw, __m512d scale) {
  const __m512d wide = _mm512_cvt_roundph_pd(_mm_castsi128_ph(dw), _MM_FROUND_NO_EXC);
  const __m512d prod = _mm512_mul_round_pd(wide, scale, kRneSae);
  return _mm_castph_si128(_mm512_cvt_roundpd_ph(prod, kRneSae));
}

}  // namespace

bool native_lane_detect() { return __builtin_cpu_supports("avx512fp16") != 0; }

REDMULE_FP16_TARGET uint16_t native_fma(uint16_t a, uint16_t b, uint16_t c) {
  const __m128h r = _mm_fmadd_round_sh(_mm_castsi128_ph(_mm_cvtsi32_si128(a)),
                                       _mm_castsi128_ph(_mm_cvtsi32_si128(b)),
                                       _mm_castsi128_ph(_mm_cvtsi32_si128(c)), kRneSae);
  const auto bits = static_cast<uint16_t>(_mm_cvtsi128_si32(_mm_castph_si128(r)));
  return (bits & 0x7FFF) > Float16::kPosInf ? Float16::kQuietNaN : bits;
}

REDMULE_FP16_TARGET void native_fma_row(const Float16* x, Float16 w, const Float16* acc,
                                        Float16* out, unsigned n) {
  const __m512h wv = _mm512_castsi512_ph(_mm512_set1_epi16(static_cast<int16_t>(w.bits())));
  for (unsigned i = 0; i < n; i += 32) {
    const __mmask32 m = lane_mask(n - i);
    const __m512h xv = _mm512_castsi512_ph(_mm512_maskz_loadu_epi16(m, x + i));
    const __m512h av = _mm512_castsi512_ph(_mm512_maskz_loadu_epi16(m, acc + i));
    const __m512h r = _mm512_fmadd_round_ph(xv, wv, av, kRneSae);
    _mm512_mask_storeu_epi16(out + i, m, canonicalize_nan(_mm512_castph_si512(r)));
  }
}

REDMULE_FP16_TARGET void native_sub_scaled_row(Float16* w, const Float16* dw, double scale,
                                               size_t n) {
  const __m512d sv = _mm512_set1_pd(scale);
  for (size_t i = 0; i < n; i += 32) {
    const __mmask32 m = lane_mask(n - i);
    const __m512i d = _mm512_maskz_loadu_epi16(m, dw + i);
    __m512i q = _mm512_castsi128_si512(scale_to_half(_mm512_castsi512_si128(d), sv));
    q = _mm512_inserti32x4(q, scale_to_half(_mm512_extracti32x4_epi32(d, 1), sv), 1);
    q = _mm512_inserti32x4(q, scale_to_half(_mm512_extracti32x4_epi32(d, 2), sv), 2);
    q = _mm512_inserti32x4(q, scale_to_half(_mm512_extracti32x4_epi32(d, 3), sv), 3);
    const __m512h wv = _mm512_castsi512_ph(_mm512_maskz_loadu_epi16(m, w + i));
    const __m512h r = _mm512_sub_round_ph(wv, _mm512_castsi512_ph(q), kRneSae);
    _mm512_mask_storeu_epi16(w + i, m, canonicalize_nan(_mm512_castph_si512(r)));
  }
}

#undef REDMULE_FP16_TARGET

#else  // no AVX512-FP16 toolchain support: native_lane() is always false,
       // so the kernels below are never called.

bool native_lane_detect() { return false; }
uint16_t native_fma(uint16_t, uint16_t, uint16_t) { std::abort(); }
void native_fma_row(const Float16*, Float16, const Float16*, Float16*, unsigned) {
  std::abort();
}
void native_sub_scaled_row(Float16*, const Float16*, double, size_t) { std::abort(); }

#endif

}  // namespace redmule::fp16::detail
