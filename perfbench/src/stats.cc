#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {
namespace {

// 1-based nearest rank of the q-quantile of n samples.
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  // Shortest text that reads back as the same double.
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

size_t MinSamplesFor(double q, size_t min_beyond) {
  size_t n = min_beyond + 1;
  while (SamplesBeyond(n, q) < min_beyond) ++n;
  return n;
}

std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond) {
  if (samples.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  if (SamplesBeyond(samples.size(), q) < min_beyond) return std::nullopt;
  const size_t index = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t count) {
  std::vector<double> offsets;
  offsets.reserve(count);
  uint64_t state = seed ^ 0x5bd1e9955bd1e995ULL;
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // 53 random bits -> U in (0, 1]; exponential gap -ln(U) / rate.
    const double u =
        (static_cast<double>(SplitMix64(&state) >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    offsets.push_back(t);
  }
  return offsets;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
