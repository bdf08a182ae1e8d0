#pragma once

// Clocks, sample sets and the per-run report shared by every workload.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rnlb {

/// Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC, vDSO-backed).
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The first now_ns() reading of the process: a compact time origin.
inline std::int64_t clock_epoch_ns() {
  static const std::int64_t epoch = now_ns();
  return epoch;
}

/// CPU time consumed by every thread of this process, in nanoseconds.
inline std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
/// Sorts `values` in place; 0 for an empty set.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

/// A timed observation: when it happened (monotonic ns) and its value.
struct Sample {
  std::int64_t t = 0;
  double v = 0;
};

/// Median of the samples' values.
inline double median(const std::vector<Sample>& samples) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back(s.v);
  return median(std::move(values));
}

/// Splits the samples' time span into `slices` equal slices and returns
/// each non-empty slice's q-quantile.
inline std::vector<double> slice_quantiles(const std::vector<Sample>& samples,
                                           int slices, double q) {
  std::vector<double> out;
  if (samples.empty()) return out;
  std::int64_t lo = samples.front().t, hi = samples.front().t;
  for (const Sample& s : samples) {
    lo = std::min(lo, s.t);
    hi = std::max(hi, s.t);
  }
  const double span = static_cast<double>(hi - lo) + 1;
  std::vector<std::vector<double>> parts(static_cast<std::size_t>(slices));
  for (const Sample& s : samples) {
    auto i = static_cast<std::size_t>(static_cast<double>(s.t - lo) / span * slices);
    parts[std::min(i, parts.size() - 1)].push_back(s.v);
  }
  for (auto& part : parts) {
    if (!part.empty()) out.push_back(quantile(part, q));
  }
  return out;
}

/// One workload run's outcome. `metrics` holds every figure the run
/// measured, end-to-end and per-layer alike; main() selects the set the
/// requested mode reports. `samples` records how many observations stand
/// behind each percentile, `notes` anything else worth printing.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> samples;
  std::map<std::string, double> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable descriptions of every correctness violation.
  std::vector<std::string> violations;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void violation(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    violations.push_back(what + " (" + std::to_string(count) + ")");
  }
  /// Records a check: on failure counts one violation.
  void check(bool ok, const std::string& what) {
    if (!ok) violation(what);
  }
};

}  // namespace rnlb
