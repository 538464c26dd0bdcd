// Measurement helpers of the repo benchmark: quantiles that refuse to
// report a tail the sample cannot support, the seeded open-loop arrival
// schedule, metric-name validation, and the JSON result line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A quantile is reported only when at least this many samples lie beyond
/// it; with fewer, the "p99" of a sample is really its maximum.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile `q` in (0, 1) of `samples`, or nullopt when fewer
/// than `min_beyond` samples are strictly above its rank.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond = kMinSamplesBeyond);

/// Samples that lie beyond the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// Fewest samples for which Percentile(q) is reported.
size_t MinSamplesFor(double q, size_t min_beyond = kMinSamplesBeyond);

/// Send offsets in seconds from the start of an open-loop phase: `count`
/// Poisson arrivals at `rate_per_s`, a pure function of `seed`.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t count);

/// Metric names are made of [A-Za-z0-9_.-], start with a letter or digit
/// and are at most 64 characters long.
bool ValidMetricName(std::string_view name);

/// Median of a non-empty sample.
double Median(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Numbers keep all their digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
