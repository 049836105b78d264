/// \file datagen_oracle.hpp
/// Serial reference generators for the row/channel-parallel datagen paths.
///
/// NgstSimulator::stack and TelemetrySimulator::stack fill their rows or
/// channels in parallel from stream snapshots taken by a skip pass.  These
/// references are the in-order loops those paths replaced, drawing from
/// \p rng exactly as a simulator owning that stream did, so tests can hold
/// the parallel paths to them byte for byte at every lane count, and check
/// that the stream is left in the same state.  They have no production
/// caller.
#pragma once

#include <cstddef>
#include <cstdint>

#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/telemetry.hpp"

namespace spacefts::check {

/// The in-order NgstSimulator::stack: background, stars, then every
/// coordinate's Eq.-(1) walk, row by row.
[[nodiscard]] common::TemporalStack<std::uint16_t> oracle_ngst_stack(
    common::Rng& rng, std::size_t frames, const datagen::SceneParams& params,
    double sigma);

/// The in-order TelemetrySimulator::stack, channel by channel.
/// \pre params are valid and params.channels > 0.
[[nodiscard]] common::TemporalStack<std::uint16_t> oracle_telemetry_stack(
    common::Rng& rng, const datagen::TelemetryParams& params);

}  // namespace spacefts::check
