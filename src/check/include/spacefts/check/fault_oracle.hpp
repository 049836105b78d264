/// \file fault_oracle.hpp
/// Naive reference sampler for the uncorrelated fault model (§2.2.2).
///
/// The production UncorrelatedFaultModel draws the gap to each flip from a
/// geometric law.  This reference spells the paper's model out literally —
/// one Bernoulli(Γ₀) draw per bit, bit 0 to the top bit of each word, word
/// by word — so the conformance tests can hold both samplers to the same
/// statistics.  It has no production caller; its RNG stream differs from the
/// production sampler's, only its law is the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spacefts/common/random.hpp"

namespace spacefts::check {

/// Per-bit Bernoulli(\p gamma0) XOR mask over \p words 16-bit words.
[[nodiscard]] std::vector<std::uint16_t> oracle_uncorrelated_mask16(
    double gamma0, std::size_t words, common::Rng& rng);

/// Per-bit Bernoulli(\p gamma0) XOR mask over \p words 32-bit words.
[[nodiscard]] std::vector<std::uint32_t> oracle_uncorrelated_mask32(
    double gamma0, std::size_t words, common::Rng& rng);

}  // namespace spacefts::check
