#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>

namespace redmule {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiscardEqualsThatManyDraws) {
  for (const uint64_t n : {0ull, 1ull, 7ull, 14592ull}) {
    Xoshiro256 a(42), b(42);
    a.discard(n);
    for (uint64_t i = 0; i < n; ++i) (void)b.next_u64();
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "n=" << n;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.next_below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRangeRespectsBounds) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double(-2.5, 7.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 7.5);
  }
}

TEST(Rng, MeanRoughlyCentered) {
  Xoshiro256 rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

}  // namespace
}  // namespace redmule
