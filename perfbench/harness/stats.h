#ifndef BIONAV_PERFBENCH_STATS_H_
#define BIONAV_PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of sockets and servers so the
// unit tests can pin it down: percentiles that refuse to speak without
// enough samples, the metric-name charset of BENCHMARK.json, exact
// before/after deltas of the server's metrics registry, and the seeded
// traffic draws (Poisson arrivals, Zipf and cyclic query choice).

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"

namespace perfbench {

/// A percentile is only named when at least this many samples lie strictly
/// above it; a p99 therefore needs 1000 samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
size_t SamplesBeyond(size_t n, double q);

/// Nearest-rank quantile of ascending `sorted`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it (the median of an empty set is
/// nullopt too).
std::optional<double> SupportedQuantile(const std::vector<double>& sorted,
                                        double q);

/// Median of `values` (any order); 0 for an empty vector.
double Median(std::vector<double> values);

/// BENCHMARK.json name rule: starts with a letter or digit, at most 64
/// characters from [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);

/// BENCHMARK.json unit rule: 1-16 characters from [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

/// The exact parts of the metrics registry a STATS response carries:
/// counters, gauges, and each histogram's count and sum. The interpolated
/// p50/p95/p99 fields are deliberately not read — their log2 buckets are
/// off by up to 2x.
struct RegistrySnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  struct Histogram {
    int64_t count = 0;
    int64_t sum_us = 0;
  };
  std::map<std::string, Histogram> histograms;
};

/// Reads the "metrics" member of a STATS document (or a bare registry
/// document) into a snapshot. False when the document has no registry.
bool ParseRegistry(const bionav::JsonValue& stats, RegistrySnapshot* out);

/// Change of one histogram over a measured phase.
struct HistogramDelta {
  int64_t count = 0;
  int64_t sum_us = 0;
  /// Mean in microseconds; 0 when nothing was recorded.
  double mean_us() const;
};

/// after - before for a counter (an absent name reads 0). Monotone
/// counters never shrink, so a negative delta means the two snapshots
/// came from different processes and yields nullopt.
std::optional<int64_t> CounterDelta(const RegistrySnapshot& before,
                                    const RegistrySnapshot& after,
                                    const std::string& name);

/// after - before for a gauge that only grows (epoll wakeups); nullopt if
/// it shrank.
std::optional<int64_t> MonotoneGaugeDelta(const RegistrySnapshot& before,
                                          const RegistrySnapshot& after,
                                          const std::string& name);

/// after - before for a histogram's count and sum; nullopt if either went
/// backwards.
std::optional<HistogramDelta> HistogramDeltaOf(const RegistrySnapshot& before,
                                               const RegistrySnapshot& after,
                                               const std::string& name);

/// splitmix64 of `seed` and `salt`: independent per-session and per-stream
/// generator seeds from one benchmark seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Session arrival offsets (seconds from the start of a phase) of a
/// Poisson process with `rate_per_s`, covering [0, seconds). The same
/// seed always yields the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double seconds);

/// Query variant of the session numbered `session_index`: a Zipf(s) draw
/// over `variants` ranks when s > 0, otherwise a cycle through every
/// variant starting at a seed-chosen offset. A pure function of its
/// arguments, so it does not depend on the order sessions start in.
size_t DrawVariant(uint64_t seed, uint64_t session_index, size_t variants,
                   double zipf_s);

}  // namespace perfbench

#endif  // BIONAV_PERFBENCH_STATS_H_
