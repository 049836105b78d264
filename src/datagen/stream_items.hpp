/// \file stream_items.hpp
/// Lane-independent generation of work items that share one RNG stream.
///
/// A generator that walks its items (image rows, telemetry channels) in
/// order on one owned stream can still fill them in parallel: one serial
/// skip pass advances the stream over each item's draws without the
/// Box–Muller transcendentals (common::RngSkipper), snapshotting it at
/// every item boundary, and the items then regenerate concurrently from
/// their snapshots.  Each item sees exactly the draws it would have seen
/// in order, and the owned stream ends where the in-order walk leaves it,
/// so the output and every later draw are identical for any lane count.
#pragma once

#include <cstddef>
#include <vector>

#include "spacefts/common/parallel.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::datagen::detail {

/// Runs body(i, rng) for every item i in [0, n) as if in order on
/// \p stream.  skip(skipper) must advance a skipper over one item's draws
/// (every item draws the same sequence of calls).  threads follows
/// common::parallel::resolve_threads; with one lane the items run in order
/// on \p stream itself and no skip pass is made.
template <class Skip, class Body>
void for_each_item(common::Rng& stream, std::size_t n, std::size_t threads,
                   Skip&& skip, Body&& body) {
  const std::size_t lanes = common::parallel::resolve_threads(threads);
  if (lanes <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, stream);
    return;
  }
  std::vector<common::Rng> starts;
  starts.reserve(n);
  {
    common::RngSkipper skipper(stream);
    for (std::size_t i = 0; i < n; ++i) {
      starts.push_back(skipper.snapshot());
      skip(skipper);
    }
  }
  common::parallel::parallel_for(
      n, 1, lanes, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) body(i, starts[i]);
      });
}

}  // namespace spacefts::datagen::detail
