#include "common/rng.hpp"

#include "common/check.hpp"

namespace redmule {
namespace {
constexpr uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64: expands the user seed into the full xoshiro state.
uint64_t splitmix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Xoshiro256::Xoshiro256(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

uint64_t Xoshiro256::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::discard(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) (void)next_u64();
}

uint64_t Xoshiro256::next_below(uint64_t bound) {
  REDMULE_ASSERT(bound > 0);
  // Debiased modulo via rejection sampling.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Xoshiro256::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Xoshiro256::next_double(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

uint64_t split_seed(uint64_t base, uint64_t stream) {
  // Two splitmix64 steps over the golden-ratio-mixed pair: adjacent stream
  // indices land in unrelated parts of the sequence, and (base, stream) ->
  // seed is a pure function of its inputs (no global state).
  uint64_t x = base ^ (stream * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
  (void)splitmix64(x);
  return splitmix64(x);
}

}  // namespace redmule
