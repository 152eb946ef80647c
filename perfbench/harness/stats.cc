#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace perfbench {

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  // Nearest rank (1-based); the epsilon keeps 0.99 * 1000 at rank 990.
  double exact = q * static_cast<double>(n) - 1e-9;
  size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(exact)));
  rank = std::min(rank, n);
  return n - rank;
}

std::optional<double> SupportedQuantile(const std::vector<double>& sorted,
                                        double q) {
  size_t beyond = SamplesBeyond(sorted.size(), q);
  if (sorted.empty() || beyond < kMinSamplesBeyond) return std::nullopt;
  return sorted[sorted.size() - beyond - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

bool ParseRegistry(const bionav::JsonValue& stats, RegistrySnapshot* out) {
  const bionav::JsonValue* registry = stats.Find("metrics");
  if (registry == nullptr) registry = &stats;
  const bionav::JsonValue* counters = registry->Find("counters");
  const bionav::JsonValue* gauges = registry->Find("gauges");
  const bionav::JsonValue* histograms = registry->Find("histograms");
  if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
      !gauges->is_object() || histograms == nullptr ||
      !histograms->is_object()) {
    return false;
  }
  *out = RegistrySnapshot();
  for (const auto& [name, value] : counters->object_items()) {
    if (value.is_number()) {
      out->counters[name] = static_cast<int64_t>(value.number_value());
    }
  }
  for (const auto& [name, value] : gauges->object_items()) {
    if (value.is_number()) {
      out->gauges[name] = static_cast<int64_t>(value.number_value());
    }
  }
  for (const auto& [name, value] : histograms->object_items()) {
    RegistrySnapshot::Histogram h;
    h.count = value.IntOr("count", 0);
    h.sum_us = value.IntOr("sum_us", 0);
    out->histograms[name] = h;
  }
  return true;
}

double HistogramDelta::mean_us() const {
  return count > 0 ? static_cast<double>(sum_us) / static_cast<double>(count)
                   : 0.0;
}

std::optional<int64_t> CounterDelta(const RegistrySnapshot& before,
                                    const RegistrySnapshot& after,
                                    const std::string& name) {
  auto read = [&](const RegistrySnapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  int64_t delta = read(after) - read(before);
  if (delta < 0) return std::nullopt;
  return delta;
}

std::optional<int64_t> MonotoneGaugeDelta(const RegistrySnapshot& before,
                                          const RegistrySnapshot& after,
                                          const std::string& name) {
  auto read = [&](const RegistrySnapshot& s) -> int64_t {
    auto it = s.gauges.find(name);
    return it == s.gauges.end() ? 0 : it->second;
  };
  int64_t delta = read(after) - read(before);
  if (delta < 0) return std::nullopt;
  return delta;
}

std::optional<HistogramDelta> HistogramDeltaOf(const RegistrySnapshot& before,
                                               const RegistrySnapshot& after,
                                               const std::string& name) {
  auto read = [&](const RegistrySnapshot& s) {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? RegistrySnapshot::Histogram()
                                    : it->second;
  };
  RegistrySnapshot::Histogram b = read(before), a = read(after);
  HistogramDelta delta;
  delta.count = a.count - b.count;
  delta.sum_us = a.sum_us - b.sum_us;
  if (delta.count < 0 || delta.sum_us < 0) return std::nullopt;
  return delta;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double seconds) {
  std::vector<double> arrivals;
  if (rate_per_s <= 0 || seconds <= 0) return arrivals;
  bionav::Rng rng(MixSeed(seed, 0x5053));
  double t = 0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - U lies in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

size_t DrawVariant(uint64_t seed, uint64_t session_index, size_t variants,
                   double zipf_s) {
  if (variants == 0) return 0;
  if (zipf_s > 0) {
    bionav::Rng rng(MixSeed(seed, 0x2000000000ULL + session_index));
    return rng.Zipf(variants, zipf_s);
  }
  uint64_t offset = MixSeed(seed, 0x4359) % variants;
  return static_cast<size_t>((offset + session_index) % variants);
}

}  // namespace perfbench
