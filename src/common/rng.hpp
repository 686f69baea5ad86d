/// \file rng.hpp
/// \brief Deterministic PRNG (xoshiro256**) for reproducible workload
///        generation. All tests and benches seed it explicitly so runs are
///        bit-identical across hosts.
#pragma once

#include <cstdint>

namespace redmule {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Xoshiro256 {
 public:
  explicit Xoshiro256(uint64_t seed = 0x5eed5eed5eed5eedULL);

  uint64_t next_u64();
  /// Advances the state as \p n next_u64() calls would.
  void discard(uint64_t n);
  /// Uniform in [0, bound). \p bound must be > 0.
  uint64_t next_below(uint64_t bound);
  /// Uniform double in [0, 1).
  double next_double();
  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);
  /// Uniform 16-bit pattern (useful to fuzz every FP16 encoding incl. NaNs).
  uint16_t next_u16() { return static_cast<uint16_t>(next_u64()); }
  bool next_bool() { return (next_u64() & 1) != 0; }

 private:
  uint64_t s_[4];
};

/// Derives an independent, reproducible stream seed from (\p base, \p
/// stream): a splitmix64 finalization over the mixed pair. Used by the batch
/// runner to give every job its own RNG stream from one batch seed, so
/// workloads are bit-identical regardless of which worker thread runs the
/// job or in which order the batch is drained.
uint64_t split_seed(uint64_t base, uint64_t stream);

}  // namespace redmule
