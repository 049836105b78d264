/// \file flight.hpp
/// One downlink flight re-flown stage by stage from the program's public
/// functions, with a span around every stage.
///
/// run_staged() performs exactly the work of downlink::run_chain — the
/// same streams, the same order, the same per-tile frames — so its product,
/// golden and counters must be byte-identical to run_chain at the same
/// config; the benchmark checks that on every traced flight.  The span
/// tree per flight is:
///
///   downlink.flight                         (root; self time = unattributed)
///     datagen.busy  core.golden  fault.memory  core.voter  metrics.score
///     trace.copy                            (benchmark bookkeeping)
///     downlink.tile × tiles                 (band copy + paste)
///       rice.encode  fits.serialize  edac.protect  fault.link
///       edac.recover  fits.parse  rice.decode
///     metrics.score                         (PSNR / match loop)
#pragma once

#include <cstdint>

#include "spacefts/downlink/chain.hpp"
#include "trace.hpp"

namespace perfbench {

/// A staged flight's outcome: run_chain's report plus what only the stage
/// view can see.
struct StagedFlight {
  spacefts::downlink::ChainReport report;
  std::size_t voter_changed = 0;  ///< voxels the voter rewrote
  std::size_t voter_useful = 0;   ///< of those, now equal to the pristine value
  std::int32_t root = kNoParent;  ///< index of the flight span
};

/// Flies \p config stage by stage, recording spans for operation \p op.
[[nodiscard]] StagedFlight run_staged(const spacefts::downlink::ChainConfig& config,
                                      Recorder& recorder, std::uint64_t op);

/// nullptr when \p a and \p b agree on product, golden and every counter;
/// otherwise names the first field that differs.
[[nodiscard]] const char* first_difference(
    const spacefts::downlink::ChainReport& a,
    const spacefts::downlink::ChainReport& b);

/// CRC-32 of an image's pixel bytes.
[[nodiscard]] std::uint32_t image_crc(
    const spacefts::common::Image<std::uint16_t>& image);

}  // namespace perfbench
