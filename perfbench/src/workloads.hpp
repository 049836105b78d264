/// \file workloads.hpp
/// The benchmark's workloads.  Each takes its seed from the command line;
/// the program under test only ever sees the inputs generated from it.
#pragma once

#include <cstdint>

#include "report.hpp"
#include "spacefts/downlink/chain.hpp"

namespace perfbench {

/// The downlink chain setting of both downlink workloads: Γ₀ = 1e-3 memory
/// flips, 5% link loss (drop = corrupt = delay = 0.05, duplicate = 0.025),
/// Λ = 80, Υ = 4, preprocessing on, one lane per host thread.
/// NGST: a side×side×frames image stack; telemetry: side channels ×
/// frames samples.  Flight \p flight flies seed derive_stream_seed(seed,
/// flight, 0).
[[nodiscard]] spacefts::downlink::ChainConfig flight_config(
    spacefts::downlink::ChainWorkload workload, std::size_t side,
    std::size_t frames, std::uint64_t seed, std::uint64_t flight);

/// downlink_ngst (256×256×8) or downlink_telemetry (64 × 2048).
[[nodiscard]] Report run_downlink(const RunOptions& options,
                                  spacefts::downlink::ChainWorkload workload);

/// serve_mix: open-loop Poisson traffic into one serve::Server at a light
/// and an overload rate.
[[nodiscard]] Report run_serve_mix(const RunOptions& options);

}  // namespace perfbench
