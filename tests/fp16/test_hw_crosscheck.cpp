/// Cross-checks the soft-float implementation against the host compiler's
/// native _Float16 arithmetic (x86-64 AVX512-FP16 or soft-fp lowering), when
/// available, and every FMA lane -- native AVX512-FP16, binary64 and the
/// kill switch -- against the soft-float core. Native _Float16 follows IEEE
/// binary16 with RNE, which is exactly our default configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

#include "api/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "common/rng.hpp"
#include "fp16/float16.hpp"
#include "workloads/network.hpp"

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

/// Draws one encoding from every operand class the FMA lanes must handle:
/// signed zeros, subnormals, normals at the underflow and overflow edges,
/// mid-range normals, infinities, quiet and signaling NaNs.
Float16 draw_any_class(Xoshiro256& rng) {
  const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
  const uint16_t frac = static_cast<uint16_t>(rng.next_u16() & 0x3FF);
  const auto normal = [&](unsigned e) {
    return Float16::from_bits(static_cast<uint16_t>(sign | (e << 10) | frac));
  };
  switch (rng.next_u16() % 11) {
    case 0:
    case 1:
      return Float16::from_bits(sign);  // +-0 (common: padding, ReLU masks)
    case 2:
      return Float16::from_bits(static_cast<uint16_t>(sign | (frac == 0 ? 1 : frac)));
    case 3:
      return Float16::from_bits(static_cast<uint16_t>(sign | 0x7C00));  // +-Inf
    case 4:  // quiet NaN
      return Float16::from_bits(static_cast<uint16_t>(sign | 0x7E00 | frac));
    case 5:  // signaling NaN
      return Float16::from_bits(static_cast<uint16_t>(sign | 0x7C00 | (frac & 0x1FF) | 1));
    case 6:  // underflow edge: the smallest normal exponents
      return normal(1 + rng.next_u16() % 3);
    case 7:  // overflow edge: the largest normal exponents
      return normal(28 + rng.next_u16() % 3);
    default:  // mid-range normals, so most results stay in the normal range
      return normal(8 + rng.next_u16() % 15);
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

/// The SGD update as it was written before sub_scaled_row existed: the
/// elementwise soft-float reference every lane of the update must match.
void reference_sgd(std::vector<Float16>& w, const std::vector<Float16>& dw,
                   double scale) {
  for (size_t i = 0; i < w.size(); ++i)
    w[i] = Float16::sub(w[i], Float16::from_double(scale * dw[i].to_double()));
}

TEST(Fp16FastFma, KillSwitchForcesSoftCore) {
  // The bench kill switch must route every call through the soft core:
  // scalar fma, the row kernel and the SGD update.
  set_fast_fma_enabled(false);
  EXPECT_FALSE(fast_fma_enabled());
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    ASSERT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits());
  }
  std::vector<Float16> x(24), acc(24), out(24), w(24), dw(24);
  for (int row = 0; row < 1000; ++row) {
    const Float16 wb = draw_any_class(rng);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = draw_any_class(rng);
      acc[i] = draw_any_class(rng);
      w[i] = draw_any_class(rng);
      dw[i] = draw_any_class(rng);
    }
    fma_row(x.data(), wb, acc.data(), out.data(), 24);
    for (size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(out[i].bits(), Float16::fma_soft(x[i], wb, acc[i]).bits());
    std::vector<Float16> want = w;
    reference_sgd(want, dw, 0.01 / 4);
    workloads::MatrixF16 wm(4, 6), dwm(4, 6);
    std::copy(w.begin(), w.end(), wm.data());
    std::copy(dw.begin(), dw.end(), dwm.data());
    workloads::apply_sgd_update(wm, dwm, 0.01, 4);
    for (size_t i = 0; i < w.size(); ++i) ASSERT_EQ(wm.data()[i].bits(), want[i].bits());
  }
  set_fast_fma_enabled(true);
  EXPECT_TRUE(fast_fma_enabled());
}

TEST(Fp16FastFma, KillSwitchLeavesTrainingStepIdentical) {
  // One whole training step of a small autoencoder, on the fast lanes and
  // then on the soft core only: same output hash, same updated weights,
  // same per-GEMM cycle records.
  workloads::AutoencoderConfig cfg;
  cfg.input_dim = 32;
  cfg.hidden = {16, 8, 16};
  cfg.batch = 4;
  Xoshiro256 rng_x(77);
  const auto x = workloads::random_matrix(cfg.input_dim, cfg.batch, rng_x, -0.5, 0.5);
  struct Step {
    workloads::NetworkGraph net;
    cluster::NetworkRunner::TrainingResult res;
  };
  const auto run_step = [&](bool fast) {
    set_fast_fma_enabled(fast);
    Xoshiro256 rng_w(1234);
    Step s{workloads::NetworkGraph::autoencoder(cfg, rng_w), {}};
    cluster::Cluster cl(cluster::ClusterConfig{});
    cluster::RedmuleDriver drv(cl);
    cluster::NetworkRunner runner(cl, drv);
    s.res = runner.training_step(s.net, x, x, /*lr=*/0.05);
    set_fast_fma_enabled(true);
    return s;
  };
  const Step fast = run_step(true);
  const Step soft = run_step(false);
  EXPECT_EQ(api::hash_matrix(fast.res.out), api::hash_matrix(soft.res.out));
  ASSERT_EQ(fast.net.n_layers(), soft.net.n_layers());
  for (size_t l = 0; l < fast.net.n_layers(); ++l) {
    const auto& wf = fast.net.layer(l).weight;
    const auto& ws = soft.net.layer(l).weight;
    ASSERT_EQ(wf.size(), ws.size());
    for (size_t i = 0; i < wf.size(); ++i)
      ASSERT_EQ(wf.data()[i].bits(), ws.data()[i].bits()) << "layer " << l << " elem " << i;
  }
  EXPECT_EQ(fast.res.stats.total_cycles, soft.res.stats.total_cycles);
  EXPECT_EQ(fast.res.stats.macs, soft.res.stats.macs);
  EXPECT_TRUE(fast.res.stats.gemms == soft.res.stats.gemms);
  EXPECT_EQ(fast.res.stats.gemms.size(), 3 * cfg.n_layers() - 1);
}

// ---------------------------------------------------------------------------
// The native AVX512-FP16 lane against the soft core. These call the lane's
// kernels directly, so they run whatever the dispatch picks; on hosts
// without the feature they skip with the reason printed.
// ---------------------------------------------------------------------------

#define REQUIRE_NATIVE_LANE()                                                  \
  do {                                                                         \
    if (!detail::native_lane())                                                \
      GTEST_SKIP() << "host CPU lacks AVX512-FP16 (or the toolchain cannot "   \
                      "build the lane): the native FMA lane is not tested; "   \
                      "the binary64 and soft lanes are";                       \
  } while (0)

TEST(Fp16NativeLane, MxcsrHasItsDefaultValue) {
  // The lanes use embedded rounding and do not depend on MXCSR, but the
  // binary64 lane and the scalar SGD reference do: the process must run with
  // RC = round-to-nearest-even and DAZ/FTZ clear.
#if defined(__x86_64__) || defined(__i386__)
  const unsigned csr = _mm_getcsr();
  EXPECT_EQ(csr & 0x6000u, 0u) << "MXCSR.RC is not round-to-nearest-even";
  EXPECT_EQ(csr & 0x8000u, 0u) << "MXCSR.FTZ is set";
  EXPECT_EQ(csr & 0x0040u, 0u) << "MXCSR.DAZ is set";
#else
  GTEST_SKIP() << "not an x86 host: no MXCSR";
#endif
}

#if defined(__x86_64__) || defined(__i386__)
TEST(Fp16NativeLane, KernelsIgnoreMxcsr) {
  // Embedded {rn-sae} rounding: with MXCSR set to round-toward-zero plus
  // DAZ and FTZ, the FMA kernels still match the (integer-only) soft core,
  // and the SGD kernel still matches its default-MXCSR result. The SGD
  // cases put scale * dw within a few binary64 ulps of an fp16 rounding
  // midpoint, where a product rounded toward zero would round to fp16 the
  // other way. (A subnormal binary64 scale would meet DAZ, as the scalar
  // code does, so the scales here are normal.)
  REQUIRE_NATIVE_LANE();
  Xoshiro256 rng(17);
  constexpr unsigned kN = 40;
  std::vector<Float16> x(kN), acc(kN), out(kN);
  for (unsigned i = 0; i < kN; ++i) {
    x[i] = draw_any_class(rng);
    acc[i] = draw_any_class(rng);
  }
  const Float16 wb = Float16::from_bits(0x0123);  // subnormal broadcast
  std::vector<double> scales;
  std::vector<Float16> dws;
  for (uint32_t mid = 0; mid < 1024; mid += 3) {
    const double m = 1.0 + (2.0 * mid + 1.0) / 2048.0;  // fp16 midpoint in [1, 2)
    for (const uint16_t d : {0x3C01, 0x4200, 0x3D55, 0x4B21, 0x2E66}) {
      const Float16 dw = Float16::from_bits(d);
      double s = m / dw.to_double();
      s = std::nextafter(s, 0.0);
      for (int k = 0; k < 3; ++k, s = std::nextafter(s, 4.0)) {
        scales.push_back(s);
        dws.push_back(dw);
      }
    }
  }
  std::vector<Float16> want(scales.size()), got(scales.size());
  for (size_t i = 0; i < scales.size(); ++i)
    detail::native_sub_scaled_row(&want[i], &dws[i], scales[i], 1);
  const unsigned saved = _mm_getcsr();
  _mm_setcsr((saved & ~0x6000u) | 0x6000u | 0x8000u | 0x0040u);  // RTZ, FTZ, DAZ
  std::vector<uint16_t> fma_bits(kN);
  for (unsigned i = 0; i < kN; ++i)
    fma_bits[i] = detail::native_fma(x[i].bits(), wb.bits(), acc[i].bits());
  detail::native_fma_row(x.data(), wb, acc.data(), out.data(), kN);
  for (size_t i = 0; i < scales.size(); ++i)
    detail::native_sub_scaled_row(&got[i], &dws[i], scales[i], 1);
  _mm_setcsr(saved);
  for (unsigned i = 0; i < kN; ++i) {
    const uint16_t soft = Float16::fma_soft(x[i], wb, acc[i]).bits();
    EXPECT_EQ(fma_bits[i], soft) << std::hex << "x=0x" << x[i].bits();
    EXPECT_EQ(out[i].bits(), soft) << std::hex << "x=0x" << x[i].bits();
  }
  for (size_t i = 0; i < scales.size(); ++i) {
    std::vector<Float16> ref{Float16{}};  // w = +0, as in want and got
    reference_sgd(ref, {dws[i]}, scales[i]);
    ASSERT_EQ(want[i].bits(), ref[0].bits()) << "scale=" << scales[i];
    ASSERT_EQ(got[i].bits(), want[i].bits())
        << std::hex << "scale=" << scales[i] << " dw=0x" << dws[i].bits();
  }
}
#endif

TEST(Fp16NativeLane, ScalarFmaMatchesSoftCore) {
  REQUIRE_NATIVE_LANE();
  const uint16_t edges[] = {
      0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x0400, 0x8400, 0x0401,
      0x3BFF, 0x3C00, 0x3C01, 0x7BFF, 0xFBFF, 0x7BFE, 0x7800, 0x7C00, 0xFC00,
      0x7E00, 0xFE00, 0x7E01, 0x7D55, 0x7C01, 0xFC01, 0x1400, 0x2E66, 0x0800,
  };
  for (const uint16_t a : edges)
    for (const uint16_t b : edges)
      for (const uint16_t c : edges)
        ASSERT_EQ(detail::native_fma(a, b, c),
                  Float16::fma_soft(Float16::from_bits(a), Float16::from_bits(b),
                                    Float16::from_bits(c))
                      .bits())
            << std::hex << "a=0x" << a << " b=0x" << b << " c=0x" << c;
  Xoshiro256 rng(31);
  for (int i = 0; i < 2'000'000; ++i) {
    const Float16 a = draw_any_class(rng), b = draw_any_class(rng), c = draw_any_class(rng);
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(detail::native_fma(a.bits(), b.bits(), c.bits()), soft)
        << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits() << " c=0x" << c.bits();
    ASSERT_EQ(Float16::fma(a, b, c).bits(), soft);
  }
}

TEST(Fp16NativeLane, RowKernelMatchesSoftCoreForEveryLength) {
  // n = 1..40 covers masked tails, one full 32-lane chunk and the chunk
  // loop; the operands start one element into their buffers so no load is
  // aligned; lanes past n must come back untouched.
  REQUIRE_NATIVE_LANE();
  constexpr uint16_t kSentinel = 0xDEAD;
  Xoshiro256 rng(4242);
  for (unsigned n = 1; n <= 40; ++n) {
    std::vector<Float16> x(n + 1), acc(n + 1), out(n + 9);
    for (int row = 0; row < 4000; ++row) {
      const Float16 w = draw_any_class(rng);
      for (unsigned i = 0; i <= n; ++i) {
        x[i] = draw_any_class(rng);
        acc[i] = draw_any_class(rng);
      }
      std::fill(out.begin(), out.end(), Float16::from_bits(kSentinel));
      detail::native_fma_row(x.data() + 1, w, acc.data() + 1, out.data() + 1, n);
      ASSERT_EQ(out[0].bits(), kSentinel) << "n=" << n;
      for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(out[i + 1].bits(), Float16::fma_soft(x[i + 1], w, acc[i + 1]).bits())
            << std::hex << "n=" << std::dec << n << " i=" << i << std::hex << " x=0x"
            << x[i + 1].bits() << " w=0x" << w.bits() << " acc=0x" << acc[i + 1].bits();
      for (unsigned i = n + 1; i < out.size(); ++i)
        ASSERT_EQ(out[i].bits(), kSentinel) << "n=" << n << " wrote past the row";
    }
  }
}

TEST(Fp16NativeLane, SgdUpdateMatchesElementwiseReference) {
  // lr / batch pairs reach tiny (subnormal or flushed-to-zero) updates,
  // ordinary ones and updates that overflow to infinity; n covers masked
  // tails and the chunk loop, and lanes past n stay untouched.
  REQUIRE_NATIVE_LANE();
  struct Rate {
    double lr;
    uint32_t batch;
  };
  const Rate rates[] = {{1e-9, 16}, {1e-6, 16}, {1e-3, 4}, {0.05, 3},
                        {1.0, 1},   {300.0, 2}, {1e4, 1},  {1e30, 7}};
  Xoshiro256 rng(99);
  for (const Rate& r : rates) {
    const double scale = r.lr / static_cast<double>(r.batch);
    for (const unsigned n : {1u, 7u, 8u, 9u, 16u, 31u, 32u, 33u, 40u, 100u}) {
      for (int rep = 0; rep < 300; ++rep) {
        std::vector<Float16> w(n + 8), dw(n + 8);
        for (unsigned i = 0; i < n + 8; ++i) {
          w[i] = draw_any_class(rng);
          dw[i] = draw_any_class(rng);
        }
        std::vector<Float16> want(w.begin(), w.begin() + n);
        reference_sgd(want, std::vector<Float16>(dw.begin(), dw.begin() + n), scale);
        std::vector<Float16> got = w;
        detail::native_sub_scaled_row(got.data(), dw.data(), scale, n);
        for (unsigned i = 0; i < n; ++i)
          ASSERT_EQ(got[i].bits(), want[i].bits())
              << std::hex << "lr=" << r.lr << " batch=" << r.batch << " w=0x"
              << w[i].bits() << " dw=0x" << dw[i].bits();
        for (unsigned i = n; i < n + 8; ++i)
          ASSERT_EQ(got[i].bits(), w[i].bits()) << "wrote past the row, n=" << n;
      }
    }
    // The matrix-level entry point dispatches to the same lane.
    workloads::MatrixF16 wm(5, 13), dwm(5, 13);
    for (size_t i = 0; i < wm.size(); ++i) {
      wm.data()[i] = draw_any_class(rng);
      dwm.data()[i] = draw_any_class(rng);
    }
    std::vector<Float16> want(wm.data(), wm.data() + wm.size());
    reference_sgd(want, std::vector<Float16>(dwm.data(), dwm.data() + dwm.size()), scale);
    workloads::apply_sgd_update(wm, dwm, r.lr, r.batch);
    for (size_t i = 0; i < wm.size(); ++i)
      ASSERT_EQ(wm.data()[i].bits(), want[i].bits()) << "lr=" << r.lr;
  }
}

}  // namespace
}  // namespace redmule::fp16
