#include "spacefts/datagen/telemetry.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "spacefts/datagen/ngst.hpp"
#include "stream_items.hpp"

namespace spacefts::datagen {
namespace {

void validate(const TelemetryParams& params) {
  if (params.samples == 0) {
    throw std::invalid_argument("telemetry: samples must be > 0");
  }
  if (!(params.base_min <= params.base_max)) {
    throw std::invalid_argument("telemetry: base_min > base_max");
  }
  if (!(params.drift_sigma >= 0.0) || !(params.osc_amp_max >= 0.0)) {
    throw std::invalid_argument("telemetry: negative sigma/amplitude");
  }
  if (!(params.osc_period_min > 0.0) ||
      !(params.osc_period_min <= params.osc_period_max)) {
    throw std::invalid_argument("telemetry: bad oscillation period range");
  }
  if (!(params.jitter >= 0.0 && params.jitter < 0.5)) {
    throw std::invalid_argument("telemetry: jitter outside [0, 0.5)");
  }
}

/// One channel's samples from \p rng, handed to put(sample, value).
/// Per-channel character draws first, then one (jitter, drift) pair per
/// sample — a fixed draw order, so a bank regenerates bit-identically.
template <class Put>
void draw_channel(const TelemetryParams& params, common::Rng& rng, Put&& put) {
  const double base = rng.uniform(params.base_min, params.base_max);
  const double amp = rng.uniform(0.0, params.osc_amp_max);
  const double period =
      rng.uniform(params.osc_period_min, params.osc_period_max);
  const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);

  double walk = 0.0;
  for (std::size_t i = 0; i < params.samples; ++i) {
    const double t = static_cast<double>(i) +
                     params.jitter * rng.uniform(-1.0, 1.0);
    walk += rng.gaussian(0.0, params.drift_sigma);
    const double v =
        base + amp * std::sin(2.0 * std::numbers::pi * t / period + phase) +
        walk;
    put(i, clamp_pixel(v));
  }
}

}  // namespace

std::vector<std::uint16_t> TelemetrySimulator::channel(
    const TelemetryParams& params) {
  validate(params);
  std::vector<std::uint16_t> out(params.samples);
  draw_channel(params, rng_,
               [&](std::size_t i, std::uint16_t v) { out[i] = v; });
  return out;
}

common::TemporalStack<std::uint16_t> TelemetrySimulator::stack(
    const TelemetryParams& params, std::size_t threads) {
  validate(params);
  if (params.channels == 0) {
    throw std::invalid_argument("telemetry: channels must be > 0");
  }
  common::TemporalStack<std::uint16_t> stack(params.channels, 1,
                                             params.samples);
  detail::for_each_item(
      rng_, params.channels, threads,
      [&](common::RngSkipper& skip) {
        skip.uniforms(4);
        for (std::size_t i = 0; i < params.samples; ++i) {
          skip.uniforms(1);
          skip.gaussians(1);
        }
      },
      [&](std::size_t x, common::Rng& rng) {
        draw_channel(params, rng, [&](std::size_t t, std::uint16_t v) {
          stack(x, 0, t) = v;
        });
      });
  return stack;
}

}  // namespace spacefts::datagen
