#include "util/cdf_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace bionav {
namespace {

/// The answer the sampler must give: std::upper_bound over the prefix
/// sums, clamped to the last index.
class Reference {
 public:
  explicit Reference(const std::vector<double>& weights) {
    double acc = 0;
    for (double w : weights) {
      acc += w;
      cdf_.push_back(acc);
    }
  }

  size_t IndexOf(double r) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
    if (it == cdf_.end()) --it;
    return static_cast<size_t>(it - cdf_.begin());
  }

  const std::vector<double>& cdf() const { return cdf_; }
  double total() const { return cdf_.back(); }

 private:
  std::vector<double> cdf_;
};

/// Checks r and its two neighbouring doubles.
void ExpectMatchesAround(const CdfSampler& sampler, const Reference& ref,
                         double r) {
  for (double x : {std::nextafter(r, -1.0), r,
                   std::nextafter(r, std::numeric_limits<double>::max())}) {
    ASSERT_EQ(sampler.IndexOf(x), ref.IndexOf(x)) << "r = " << x;
  }
}

/// Every bucket edge and every prefix sum, each ±1 ulp.
void ExpectMatchesAtEveryEdge(const std::vector<double>& weights) {
  CdfSampler sampler(weights);
  Reference ref(weights);
  ASSERT_EQ(sampler.total(), ref.total());
  const double n = static_cast<double>(weights.size());
  const double scale = n / ref.total();
  for (size_t b = 0; b <= weights.size(); ++b) {
    ExpectMatchesAround(sampler, ref, static_cast<double>(b) / scale);
    ExpectMatchesAround(sampler, ref,
                        static_cast<double>(b) * (ref.total() / n));
  }
  for (double sum : ref.cdf()) ExpectMatchesAround(sampler, ref, sum);
}

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return w;
}

TEST(CdfSampler, MillionRandomDrawsMatchUpperBound) {
  Rng weights_rng(17);
  std::vector<double> weights = ZipfWeights(48000, 1.05);
  for (double& w : weights) {
    if (weights_rng.Bernoulli(0.1)) w *= 6.0;
    if (weights_rng.Bernoulli(0.05)) w = 0.0;
  }
  CdfSampler sampler(weights);
  Reference ref(weights);
  Rng rng(2009);
  for (int i = 0; i < 1000000; ++i) {
    const double r = rng.UniformDouble() * ref.total();
    ASSERT_EQ(sampler.IndexOf(r), ref.IndexOf(r)) << "draw " << i;
  }
}

TEST(CdfSampler, EveryBucketEdgeAndPrefixSumMatch) {
  ExpectMatchesAtEveryEdge(ZipfWeights(48000, 1.05));
  ExpectMatchesAtEveryEdge(ZipfWeights(2000, 0.9));
  std::vector<double> uneven = {1e-9, 3.0, 1e-12, 0.5, 7.25, 1e-6, 2.0};
  ExpectMatchesAtEveryEdge(uneven);
}

TEST(CdfSampler, ZeroWeightsAreNeverDrawn) {
  // Zero weights repeat a prefix sum; upper_bound skips every copy.
  std::vector<double> weights = {0, 0, 1, 0, 0, 0, 2, 0, 3, 0, 0};
  ExpectMatchesAtEveryEdge(weights);
  CdfSampler sampler(weights);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const size_t k = sampler.Sample(&rng);
    ASSERT_GT(weights[k], 0.0) << "drew zero-weight index " << k;
  }
}

TEST(CdfSampler, SingleWeight) {
  std::vector<double> weights = {4.5};
  ExpectMatchesAtEveryEdge(weights);
  CdfSampler sampler(weights);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(CdfSampler, DrawsApproachingTotalClampToLastIndex) {
  for (const std::vector<double>& weights :
       {ZipfWeights(48000, 1.05), std::vector<double>{1, 2, 3, 0, 0}}) {
    CdfSampler sampler(weights);
    Reference ref(weights);
    const double total = ref.total();
    // The largest u UniformDouble returns, and r = total itself.
    const double u_max = 1.0 - 0x1.0p-53;
    for (double r : {u_max * total, std::nextafter(total, 0.0), total,
                     std::nextafter(total, 2 * total), 2 * total}) {
      EXPECT_EQ(sampler.IndexOf(r), ref.IndexOf(r)) << "r = " << r;
    }
  }
  // Past the last positive weight only zero weights remain: upper_bound
  // runs off the end, so the answer clamps to the last index.
  CdfSampler trailing_zeros({1, 2, 3, 0, 0});
  EXPECT_EQ(trailing_zeros.IndexOf(6.0), 4u);
}

TEST(CdfSampler, SampleDrawsWhatWeightedIndexDraws) {
  // One UniformDouble per draw, scaled by the same total: the same stream
  // of indexes as Rng::WeightedIndex, which the hierarchy generator used.
  std::vector<double> weights = {0.0, 1.6, 7.0, 18.0, 27.0, 25.0,
                                 16.0, 9.0, 4.5, 1.6, 0.45};
  CdfSampler sampler(weights);
  Rng a(2009), b(2009);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(sampler.Sample(&a), b.WeightedIndex(weights)) << "draw " << i;
  }
}

TEST(CdfSamplerDeath, RejectsEmptyNegativeAndAllZeroWeights) {
  EXPECT_DEATH(CdfSampler(std::vector<double>{}), "Check failed");
  EXPECT_DEATH(CdfSampler(std::vector<double>{1.0, -1.0}), "Check failed");
  EXPECT_DEATH(CdfSampler(std::vector<double>{0.0, 0.0}), "Check failed");
}

}  // namespace
}  // namespace bionav
