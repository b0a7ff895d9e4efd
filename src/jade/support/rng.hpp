// Deterministic pseudo-random number generation.
//
// Reproducibility is a design requirement: the paper's central property is
// that "all parallel executions of a Jade program deterministically generate
// the same result as a serial execution"; our property tests generate random
// programs and random workloads from seeds, so the generators must be
// portable and stable across platforms (std::mt19937 distributions are not).
#pragma once

#include <cstdint>

namespace jade {

/// SplitMix64: used to seed Xoshiro and as a cheap standalone generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** — fast, high-quality, deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1dea5eedULL);

  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial with probability p.
  bool next_bool(double p = 0.5);

 private:
  std::uint64_t s_[4];
};

}  // namespace jade
