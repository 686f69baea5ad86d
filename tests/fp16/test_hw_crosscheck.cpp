/// Cross-checks the soft-float implementation against the host compiler's
/// native _Float16 arithmetic (x86-64 AVX512-FP16 or soft-fp lowering), when
/// available. Native _Float16 follows IEEE binary16 with RNE, which is
/// exactly our default configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "fp16/float16.hpp"

namespace redmule::fp16 {
namespace {

#if defined(__FLT16_MAX__)
using NativeF16 = _Float16;

uint16_t native_bits(NativeF16 v) {
  uint16_t b;
  static_assert(sizeof(v) == 2);
  __builtin_memcpy(&b, &v, 2);
  return b;
}

NativeF16 native_from_bits(uint16_t b) {
  NativeF16 v;
  __builtin_memcpy(&v, &b, 2);
  return v;
}

bool both_nan(uint16_t a, uint16_t b) {
  auto is_nan = [](uint16_t x) { return (x & 0x7C00) == 0x7C00 && (x & 0x3FF) != 0; };
  return is_nan(a) && is_nan(b);
}

TEST(Fp16Native, ExhaustiveConversionToFloat) {
  for (uint32_t b = 0; b <= 0xFFFF; ++b) {
    const Float16 f = Float16::from_bits(static_cast<uint16_t>(b));
    const float ours = f.to_float();
    const float native = static_cast<float>(native_from_bits(static_cast<uint16_t>(b)));
    if (f.is_nan()) {
      EXPECT_TRUE(std::isnan(native));
    } else {
      EXPECT_EQ(ours, native) << std::hex << b;
    }
  }
}

TEST(Fp16Native, ExhaustiveConversionFromFloatSamples) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 500000; ++i) {
    // Random float32 patterns biased toward the fp16 range.
    uint32_t bits = static_cast<uint32_t>(rng.next_u64());
    float x;
    __builtin_memcpy(&x, &bits, 4);
    if (std::isnan(x)) continue;
    const uint16_t ours = Float16::from_float(x).bits();
    const uint16_t native = native_bits(static_cast<NativeF16>(x));
    if (both_nan(ours, native)) continue;
    EXPECT_EQ(ours, native) << "float bits 0x" << std::hex << bits;
  }
}

TEST(Fp16Native, RandomizedAdd) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 500000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::add(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) + native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, RandomizedMul) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 500000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::mul(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) * native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, RandomizedDiv) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 300000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::div(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) / native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, SubnormalOperands) {
  // Directed sweep over subnormal x subnormal and subnormal x normal edges.
  for (uint32_t a = 0; a <= 0x3FF; a += 7) {
    for (uint32_t b = 0x8000; b <= 0x83FF; b += 13) {
      const uint16_t ua = static_cast<uint16_t>(a), ub = static_cast<uint16_t>(b);
      const uint16_t ours = Float16::add(Float16::from_bits(ua), Float16::from_bits(ub)).bits();
      const uint16_t native = native_bits(native_from_bits(ua) + native_from_bits(ub));
      ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
    }
  }
}
#else
TEST(Fp16Native, Unavailable) {
  GTEST_SKIP() << "toolchain has no native _Float16; cross-check skipped";
}
#endif

// ---------------------------------------------------------------------------
// Fast-path FMA vs soft-float core. Float16::fma() dispatches normal/RNE/
// flag-free operands to a native-arithmetic fast path; Float16::fma_soft()
// is the bit-exact oracle. These tests pin the dispatch contract: bit-equal
// results everywhere, identical flag behavior, correct fallback on every
// eligibility edge (subnormals, NaN/Inf, non-RNE, flag observers).
// ---------------------------------------------------------------------------

TEST(Fp16FastFma, FuzzRneBitExact) {
  // >= 10M uniform-random encoding triples under the dispatching entry point
  // (RNE, no flags): the configuration where the fast path actually engages.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(1234);
  for (int i = 0; i < 4'000'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    const uint16_t fast = Float16::fma(a, b, c).bits();
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(fast, soft) << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits()
                          << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, FuzzRneNormalBiasedBitExact) {
  // Uniform encodings make ~94% of triples all-normal but most products
  // over/underflow. Bias exponents toward the middle so results land in the
  // normal range and the fast path's pack (not just its bail-out) is hit.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(5678);
  auto mid_normal = [&rng]() {
    const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
    const uint16_t e = static_cast<uint16_t>(8 + (rng.next_u16() % 15));  // 8..22
    const uint16_t frac = static_cast<uint16_t>(rng.next_u16() & 0x3FF);
    return Float16::from_bits(static_cast<uint16_t>(sign | (e << 10) | frac));
  };
  for (int i = 0; i < 6'000'000; ++i) {
    const Float16 a = mid_normal(), b = mid_normal(), c = mid_normal();
    const uint16_t fast = Float16::fma(a, b, c).bits();
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(fast, soft) << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits()
                          << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, AllRoundingModesWithAndWithoutFlags) {
  // Non-RNE modes and flag observers must fall back to (and agree with) the
  // soft core, with identical flag behavior.
  Xoshiro256 rng(91);
  const RoundingMode modes[] = {RoundingMode::kRNE, RoundingMode::kRTZ,
                                RoundingMode::kRDN, RoundingMode::kRUP,
                                RoundingMode::kRMM};
  for (int i = 0; i < 400'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    for (const RoundingMode rm : modes) {
      Flags fl_fast, fl_soft;
      const uint16_t fast = Float16::fma(a, b, c, rm, &fl_fast).bits();
      const uint16_t soft = Float16::fma_soft(a, b, c, rm, &fl_soft).bits();
      ASSERT_EQ(fast, soft) << std::hex << "rm=" << static_cast<int>(rm) << " a=0x"
                            << a.bits() << " b=0x" << b.bits() << " c=0x" << c.bits();
      ASSERT_EQ(fl_fast.to_fflags(), fl_soft.to_fflags())
          << std::hex << "rm=" << static_cast<int>(rm) << " a=0x" << a.bits()
          << " b=0x" << b.bits() << " c=0x" << c.bits();
      const uint16_t fast_nf = Float16::fma(a, b, c, rm).bits();
      ASSERT_EQ(fast_nf, soft) << std::hex << "rm=" << static_cast<int>(rm) << " a=0x"
                               << a.bits() << " b=0x" << b.bits() << " c=0x"
                               << c.bits();
    }
  }
}

TEST(Fp16FastFma, DirectedEligibilityEdges) {
  // Sweep the boundary encodings where the fast path must either engage and
  // round identically or detect ineligibility: around the subnormal/normal
  // border, max normal (overflow bail), min normal (underflow bail), zeros,
  // infinities and NaNs, plus exact cancellations (v == 0).
  const uint16_t interesting[] = {
      0x0000, 0x8000,          // +-0
      0x0001, 0x8001,          // min subnormal
      0x03FF, 0x83FF,          // max subnormal
      0x0400, 0x8400,          // min normal
      0x0401, 0x8401,          // just above min normal
      0x3BFF, 0x3C00, 0x3C01,  // around 1.0
      0x7BFF, 0xFBFF,          // max normal
      0x7BFE, 0x7800,          // near max normal
      0x7C00, 0xFC00,          // +-inf
      0x7E00, 0x7D55, 0x7C01,  // quiet and signaling NaNs
      0x0402, 0x1400, 0x2E66,  // assorted normals
  };
  for (const uint16_t ab : interesting)
    for (const uint16_t bb : interesting)
      for (const uint16_t cb : interesting) {
        const Float16 a = Float16::from_bits(ab);
        const Float16 b = Float16::from_bits(bb);
        const Float16 c = Float16::from_bits(cb);
        const uint16_t fast = Float16::fma(a, b, c).bits();
        const uint16_t soft = Float16::fma_soft(a, b, c).bits();
        ASSERT_EQ(fast, soft) << std::hex << "a=0x" << ab << " b=0x" << bb << " c=0x"
                              << cb;
      }
  // Exact cancellation a*b == -c: the binary64 sum is exactly +0.0, which
  // the fast path returns as the fp16 +0 the soft core produces.
  const Float16 one = Float16::from_bits(0x3C00);
  const Float16 two = Float16::from_bits(0x4000);
  const Float16 neg_two = Float16::from_bits(0xC000);
  EXPECT_EQ(Float16::fma(one, two, neg_two).bits(),
            Float16::fma_soft(one, two, neg_two).bits());
}

TEST(Fp16FastFma, ExhaustiveZeroProductWithZeroAddend) {
  // Every normal-or-zero a times a signed zero, plus a signed zero: the
  // fast path returns the binary64 signed zero, which must be the soft
  // core's RNE signed zero in all sign combinations.
  ASSERT_TRUE(fast_fma_enabled());
  const Float16 zeros[] = {Float16::from_bits(Float16::kPosZero),
                           Float16::from_bits(Float16::kNegZero)};
  for (uint32_t ab = 0; ab <= 0xFFFF; ++ab) {
    const Float16 a = Float16::from_bits(static_cast<uint16_t>(ab));
    if (!detail::is_normal_or_zero(a)) continue;
    for (const Float16 b : zeros)
      for (const Float16 c : zeros)
        ASSERT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits())
            << std::hex << "a=0x" << ab << " b=0x" << b.bits() << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, ExhaustiveExactCancellation) {
  // Every pair of normals whose product is an exact fp16 value, with the
  // addend c = -(a*b): the exact sum is zero and must come out as the soft
  // core's +0. Pairs are enumerated by significand: the product is exact
  // only when the odd part of the 22-bit significand product fits in 11 bits.
  ASSERT_TRUE(fast_fma_enabled());
  uint64_t checked = 0;
  for (uint32_t fa = 0; fa < 1024; ++fa)
    for (uint32_t fb = 0; fb < 1024; ++fb) {
      uint32_t odd = (1024 + fa) * (1024 + fb);
      while ((odd & 1u) == 0) odd >>= 1;
      if (odd >= 2048) continue;
      for (uint32_t ea = 1; ea <= 30; ++ea)
        for (uint32_t eb = 1; eb <= 30; ++eb)
          for (const uint32_t sign_a : {0x0000u, 0x8000u})
            for (const uint32_t sign_b : {0x0000u, 0x8000u}) {
              const Float16 a =
                  Float16::from_bits(static_cast<uint16_t>(sign_a | (ea << 10) | fa));
              const Float16 b =
                  Float16::from_bits(static_cast<uint16_t>(sign_b | (eb << 10) | fb));
              Flags fl;
              const Float16 p = Float16::mul(a, b, RoundingMode::kRNE, &fl);
              if (fl.inexact) continue;  // also excludes overflow
              const Float16 c = p.neg();
              const uint16_t fast = Float16::fma(a, b, c).bits();
              ASSERT_EQ(fast, Float16::fma_soft(a, b, c).bits())
                  << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits();
              ASSERT_EQ(fast, Float16::kPosZero);
              ++checked;
            }
    }
  EXPECT_GT(checked, 1'000'000u);
}

/// Draws one encoding from every operand class the row kernel must handle:
/// normals, signed zeros, subnormals, infinities, quiet and signaling NaNs.
Float16 draw_any_class(Xoshiro256& rng) {
  const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
  const uint16_t frac = static_cast<uint16_t>(rng.next_u16() & 0x3FF);
  switch (rng.next_u16() % 8) {
    case 0:
    case 1:
      return Float16::from_bits(sign);  // +-0 (common: padding, ReLU masks)
    case 2:
      return Float16::from_bits(static_cast<uint16_t>(sign | (frac == 0 ? 1 : frac)));
    case 3:
      return Float16::from_bits(static_cast<uint16_t>(sign | 0x7C00));  // +-Inf
    case 4:  // quiet or signaling NaN
      return Float16::from_bits(static_cast<uint16_t>(
          sign | 0x7C00 | ((rng.next_u16() & 1u) ? 0x200 : 0) | (frac | 1)));
    default: {  // mid-range normals, so most results stay in the normal range
      const uint16_t e = static_cast<uint16_t>(8 + (rng.next_u16() % 15));
      return Float16::from_bits(static_cast<uint16_t>(sign | (e << 10) | frac));
    }
  }
}

TEST(Fp16FastFma, RowKernelMatchesSoftCorePerElement) {
  // fma_row() hoists the kill switch and the w classification out of the
  // lane loop; every lane must still equal the per-element soft core, with
  // the fast path on and off.
  Xoshiro256 rng(2024);
  for (const bool fast : {true, false}) {
    set_fast_fma_enabled(fast);
    for (const unsigned l : {1u, 8u, 16u}) {
      std::vector<Float16> x(l), acc(l), out(l);
      for (int row = 0; row < 100'000; ++row) {
        const Float16 w = draw_any_class(rng);
        for (unsigned i = 0; i < l; ++i) {
          x[i] = draw_any_class(rng);
          acc[i] = draw_any_class(rng);
        }
        fma_row(x.data(), w, acc.data(), out.data(), l);
        for (unsigned i = 0; i < l; ++i)
          ASSERT_EQ(out[i].bits(), Float16::fma_soft(x[i], w, acc[i]).bits())
              << std::hex << "fast=" << fast << " L=" << l << " x=0x" << x[i].bits()
              << " w=0x" << w.bits() << " acc=0x" << acc[i].bits();
      }
    }
  }
  set_fast_fma_enabled(true);
}

TEST(Fp16FastFma, KillSwitchForcesSoftCore) {
  // The bench kill switch must route every call through the soft core.
  set_fast_fma_enabled(false);
  EXPECT_FALSE(fast_fma_enabled());
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    ASSERT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits());
  }
  set_fast_fma_enabled(true);
  EXPECT_TRUE(fast_fma_enabled());
}

}  // namespace
}  // namespace redmule::fp16
