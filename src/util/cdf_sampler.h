#ifndef BIONAV_UTIL_CDF_SAMPLER_H_
#define BIONAV_UTIL_CDF_SAMPLER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace bionav {

/// Categorical sampler over fixed non-negative weights: one UniformDouble
/// draw r = u * total, answered with the index std::upper_bound finds for r
/// in the prefix sums (clamped to the last index). Rng::Zipf is O(n) per
/// draw, which is too slow for the millions of draws a corpus needs.
///
/// A guide table makes a draw O(1) on average without changing a single
/// answer. The range [0, total] is split into as many buckets as there are
/// weights, and bucket(r) = min(n - 1, floor(r * (n / total))) is monotone
/// in r. guide_[b] counts the prefix sums whose bucket is below b. Every such
/// sum is < r for any r in bucket b, so upper_bound's answer for r is at
/// least guide_[b], and a forward scan from there finds it. A +infinity
/// sentinel after the last sum stops the scan without a bounds test.
class CdfSampler {
 public:
  explicit CdfSampler(std::vector<double> weights) : cdf_(std::move(weights)) {
    BIONAV_CHECK(!cdf_.empty());
    double acc = 0;
    for (double& w : cdf_) {
      BIONAV_CHECK_GE(w, 0.0);
      acc += w;
      w = acc;
    }
    BIONAV_CHECK_GT(acc, 0.0);
    total_ = acc;
    const size_t n = cdf_.size();
    BIONAV_CHECK_LE(n, size_t{UINT32_MAX});  // guide_ holds indexes as u32.
    scale_ = static_cast<double>(n) / total_;
    BIONAV_CHECK(std::isfinite(scale_));
    guide_.resize(n);
    size_t i = 0;
    for (size_t b = 0; b < n; ++b) {
      while (i < n && Bucket(cdf_[i]) < b) ++i;
      guide_[b] = static_cast<uint32_t>(i);
    }
    cdf_.push_back(std::numeric_limits<double>::infinity());
  }

  /// Index of the first prefix sum greater than r, or the last index when
  /// none is. Equals std::upper_bound over the prefix sums for any r.
  size_t IndexOf(double r) const {
    size_t i = guide_[Bucket(r)];
    // Most buckets hold at most one sum: take that step without a branch.
    i += cdf_[i] <= r;
    while (cdf_[i] <= r) ++i;
    return std::min(i, size() - 1);
  }

  size_t Sample(Rng* rng) const {
    return IndexOf(rng->UniformDouble() * total_);
  }

  double total() const { return total_; }
  size_t size() const { return guide_.size(); }

 private:
  size_t Bucket(double r) const {
    const double scaled = r * scale_;
    const double last = static_cast<double>(guide_.size() - 1);
    // Also maps r < 0 to bucket 0: the guide then holds no sum below it.
    return scaled >= last ? guide_.size() - 1
                          : scaled > 0 ? static_cast<size_t>(scaled) : 0;
  }

  // Prefix sums of the weights, then the +infinity sentinel.
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
  double total_ = 0;
  double scale_ = 0;
};

}  // namespace bionav

#endif  // BIONAV_UTIL_CDF_SAMPLER_H_
