#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double q) noexcept {
  // Samples ranked strictly above the q-th percentile's rank ceil(q·n/100).
  // The tolerance keeps 90% of 100 at exactly 90 despite binary rounding.
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  const auto at = static_cast<std::size_t>(std::max(0.0, rank));
  return at >= n ? 0 : n - at;
}

double highest_supported_percentile(std::size_t n) noexcept {
  double best = 0.0;
  for (const double q : {50.0, 90.0, 99.0, 99.9}) {
    if (supports_percentile(n, q)) best = q;
  }
  return best;
}

}  // namespace perfbench
