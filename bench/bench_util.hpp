/// \file bench_util.hpp
/// Shared machinery for the experiment harnesses in bench/.
///
/// Every figure bench follows the same pattern: synthesise pristine data,
/// replay one fault mask against several preprocessing algorithms, and
/// report the paper's Ψ metric per (parameter point, algorithm).  The
/// helpers here keep each bench to its experiment-specific sweep.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/metrics/error.hpp"
#include "spacefts/smoothing/temporal.hpp"

namespace bench {

/// One named preprocessing algorithm over a temporal series.
struct TemporalAlgorithm {
  std::string name;
  std::function<void(std::span<std::uint16_t>)> run;  ///< in-place
};

/// The figure benches' standard algorithm roster.
inline TemporalAlgorithm no_preprocessing() {
  return {"NoPre", [](std::span<std::uint16_t>) {}};
}

inline TemporalAlgorithm algo_ngst(double lambda, std::size_t upsilon = 4) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = lambda;
  config.upsilon = upsilon;
  const spacefts::core::AlgoNgst algo(config);
  char label[48];
  std::snprintf(label, sizeof label, "Algo_NGST(L=%g,Y=%zu)", lambda, upsilon);
  return {label,
          [algo](std::span<std::uint16_t> s) { (void)algo.preprocess(s); }};
}

inline TemporalAlgorithm median3() {
  return {"Median-3",
          [](std::span<std::uint16_t> s) { spacefts::smoothing::median_smooth3(s); }};
}

inline TemporalAlgorithm bitvote3() {
  return {"BitVote-3", [](std::span<std::uint16_t> s) {
            spacefts::smoothing::majority_bit_vote3(s);
          }};
}

/// Generates a fault mask for one trial.
using MaskSource =
    std::function<std::vector<std::uint16_t>(std::size_t, spacefts::common::Rng&)>;

inline MaskSource uncorrelated_mask(double gamma0) {
  return [gamma0](std::size_t words, spacefts::common::Rng& rng) {
    return spacefts::fault::UncorrelatedFaultModel(gamma0).mask16(words, rng);
  };
}

inline MaskSource correlated_mask(double gamma_ini) {
  // One 16-bit word per memory line: vertical runs strike the same bit of
  // consecutive readouts (the §2.2.3 layout used throughout the benches).
  return [gamma_ini](std::size_t words, spacefts::common::Rng& rng) {
    return spacefts::fault::CorrelatedFaultModel(gamma_ini).mask16(1, words, rng);
  };
}

/// Measures Ψ for every algorithm on identical corrupted inputs.
/// \returns one Ψ value per algorithm, in roster order.
inline std::vector<double> measure_psi(
    const std::vector<TemporalAlgorithm>& roster, const MaskSource& mask_source,
    std::size_t trials, std::size_t frames, double start, double sigma,
    std::uint64_t seed) {
  spacefts::datagen::NgstSimulator sim(seed);
  spacefts::common::Rng fault_rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<double> psi(roster.size(), 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    const auto pristine = sim.sequence(frames, start, sigma);
    const auto mask = mask_source(pristine.size(), fault_rng);
    auto corrupted = pristine;
    spacefts::fault::apply_mask<std::uint16_t>(corrupted, mask);
    for (std::size_t a = 0; a < roster.size(); ++a) {
      auto working = corrupted;
      roster[a].run(working);
      psi[a] += spacefts::metrics::average_relative_error<std::uint16_t>(
          pristine, working);
    }
  }
  for (double& p : psi) p /= static_cast<double>(trials);
  return psi;
}

/// Prints a table header: the x-label followed by one column per algorithm.
inline void print_header(const char* x_label,
                         const std::vector<TemporalAlgorithm>& roster) {
  std::printf("%-12s", x_label);
  for (const auto& algo : roster) std::printf("  %20s", algo.name.c_str());
  std::printf("\n");
}

/// Prints one row of Ψ values.
inline void print_row(double x, const std::vector<double>& psi) {
  std::printf("%-12g", x);
  for (double p : psi) std::printf("  %20.6g", p);
  std::printf("\n");
}

}  // namespace bench
