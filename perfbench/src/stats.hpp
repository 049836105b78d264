/// \file stats.hpp
/// Order statistics for the benchmark's reported figures.
///
/// A timing is reported as its median plus one tail percentile, and a tail
/// percentile is only meaningful when enough samples lie beyond it: the
/// benchmark reports the highest of p50/p90/p99/p99.9 that has at least
/// ten samples above it, and refuses a declared tail the run cannot back.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// The \p q-th percentile (0..100) of \p values by linear interpolation
/// between closest ranks.  Returns 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// How many of \p n samples lie strictly beyond the \p q-th percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q) noexcept;

/// The highest of 50, 90, 99, 99.9 with at least kTailSamples samples
/// beyond it among \p n samples; 0 when not even the median qualifies.
[[nodiscard]] double highest_supported_percentile(std::size_t n) noexcept;

/// True when \p n samples back the \p q-th percentile.
[[nodiscard]] inline bool supports_percentile(std::size_t n, double q) noexcept {
  return samples_beyond(n, q) >= kTailSamples;
}

}  // namespace perfbench
