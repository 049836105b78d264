/// \file sweep.hpp
/// The trial engine the grid sweeps share.
///
/// A sweep is a list of cells, each run for a number of seeded trials and
/// then folded into one row per cell.  The harnesses differ in their cell
/// struct, their trial and their fold; this header holds what they share:
/// the axis check and the seeded, slot-preallocated trial loop.  Every
/// (cell, trial) pair gets the stateless seed
/// `derive_stream_seed(seed, cell, trial)` and writes its record to its own
/// slot, so the records (and every fold over them) are identical for any
/// lane count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "spacefts/common/parallel.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::campaign {

/// Rejects a sweep axis that is empty or holds a value outside [lo, hi]
/// (NaN included).  \p who names the harness and \p name the axis in the
/// message.  \throws std::invalid_argument
inline void check_axis(const std::vector<double>& axis, const char* who,
                       const char* name, double lo, double hi) {
  if (axis.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty axis " + name);
  }
  for (const double v : axis) {
    if (!(v >= lo && v <= hi)) {
      char range[64];
      std::snprintf(range, sizeof range, " outside [%g, %g]", lo, hi);
      throw std::invalid_argument(std::string(who) + ": " + name + range);
    }
  }
}

/// Runs `trial(cell, trial_index, seed)` for every pair in
/// [0, cells) × [0, trials) on up to \p threads lanes (0 = all hardware
/// threads), with seed = `derive_stream_seed(seed, cell, trial_index)`.
/// Returns the records in (cell, trial) order — record `c * trials + t`
/// belongs to cell c, trial t — whatever the lane count.  The first
/// exception a trial throws reaches the caller once every lane drains.
template <typename Record, typename Trial>
[[nodiscard]] std::vector<Record> run_trials(std::size_t cells,
                                             std::size_t trials,
                                             std::uint64_t seed,
                                             std::size_t threads,
                                             const Trial& trial) {
  std::vector<Record> records(cells * trials);
  common::parallel::parallel_for(
      records.size(), 1, common::parallel::resolve_threads(threads),
      [&](std::size_t begin, std::size_t end, std::size_t /*lane*/) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t cell = i / trials;
          const std::size_t t = i % trials;
          records[i] =
              trial(cell, t, common::derive_stream_seed(seed, cell, t));
        }
      });
  return records;
}

}  // namespace spacefts::campaign
