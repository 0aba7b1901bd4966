#pragma once

/// \file util.hpp
/// Small helpers shared by the benchmark runner: a monotonic nanosecond
/// clock, exact order statistics over sample vectors, a 64-bit string hash
/// for response byte-identity checks, and the metric map the runner prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact quantile (nearest rank on the sorted samples); 0 when empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

/// Quantile \p q of each of \p windows consecutive equal slices of \p v.
template <typename T>
std::vector<double> window_quantiles(const std::vector<T>& v, int windows, double q) {
  std::vector<double> out;
  const std::size_t n = v.size();
  for (int w = 0; w < windows; ++w) {
    const std::size_t lo = n * static_cast<std::size_t>(w) / static_cast<std::size_t>(windows);
    const std::size_t hi = n * static_cast<std::size_t>(w + 1) / static_cast<std::size_t>(windows);
    if (hi > lo) out.push_back(quantile(std::vector<T>(v.begin() + lo, v.begin() + hi), q));
  }
  return out;
}

/// The host-robust summary of per-window timings: their lower quartile.
/// On a shared VM the host takes the CPU away in bursts of milliseconds to
/// seconds; that noise only ever makes a window slower, so the faster
/// windows of a run are closest to what the program itself does.  The
/// lower quartile rather than the fastest window still moves when a
/// regression shows in only some of the windows.
inline double lower_quartile(std::vector<double> v) { return quantile(std::move(v), 0.25); }

/// FNV-1a, 64 bit.
inline std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One reported metric: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
