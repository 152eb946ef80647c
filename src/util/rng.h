#ifndef BIONAV_UTIL_RNG_H_
#define BIONAV_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace bionav {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). All synthetic-data generation in the repository goes through
/// this class so that workloads, tests and benchmarks are reproducible
/// across platforms and standard-library versions (std::mt19937 streams are
/// stable, but distributions are not).
///
/// The draws generation makes millions of times per workload (Next,
/// Uniform, UniformDouble, Bernoulli) are defined here so they inline.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Returns the next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a uniform integer in [0, bound). Requires bound > 0.
  uint64_t Uniform(uint64_t bound) {
    BIONAV_CHECK_GT(bound, 0u);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    while (true) {
      uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Returns a uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a uniform double in [0, 1).
  double UniformDouble() {
    // 53 random mantissa bits.
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Samples from Zipf(s) over ranks {1..n}, returning a 0-based index.
  /// Used to give concepts / terms realistic skewed popularity.
  size_t Zipf(size_t n, double s);

  /// Returns an approximately Gaussian sample (sum of uniforms) with the
  /// given mean and standard deviation. Accuracy is sufficient for workload
  /// shaping; no transcendental-function portability concerns.
  double Gaussian(double mean, double stddev);

  /// Fisher-Yates shuffles a vector in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Uniform(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace bionav

#endif  // BIONAV_UTIL_RNG_H_
