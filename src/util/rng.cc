#include "util/rng.h"

#include <cmath>

namespace bionav {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  BIONAV_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    BIONAV_CHECK_GE(w, 0.0);
    total += w;
  }
  BIONAV_CHECK_GT(total, 0.0);
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

size_t Rng::Zipf(size_t n, double s) {
  BIONAV_CHECK_GT(n, 0u);
  // Inverse-CDF on the harmonic partial sums; O(n) set-up avoided by a
  // simple rejection scheme adequate for moderate n in generators.
  // For simplicity and determinism we use linear inverse-CDF with cached
  // normalization recomputed per call only for small n; generators that need
  // many samples should wrap this class with their own tables.
  double norm = 0;
  for (size_t k = 1; k <= n; ++k) norm += 1.0 / std::pow(static_cast<double>(k), s);
  double r = UniformDouble() * norm;
  double acc = 0;
  for (size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    if (r < acc) return k - 1;
  }
  return n - 1;
}

double Rng::Gaussian(double mean, double stddev) {
  // Irwin-Hall approximation: sum of 12 uniforms has mean 6, variance 1.
  double sum = 0;
  for (int i = 0; i < 12; ++i) sum += UniformDouble();
  return mean + (sum - 6.0) * stddev;
}

}  // namespace bionav
