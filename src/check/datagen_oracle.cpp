#include "spacefts/check/datagen_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace spacefts::check {

using datagen::clamp_pixel;

common::TemporalStack<std::uint16_t> oracle_ngst_stack(
    common::Rng& rng, std::size_t frames, const datagen::SceneParams& params,
    double sigma) {
  common::Image<std::uint16_t> base(params.width, params.height);
  for (std::size_t y = 0; y < params.height; ++y) {
    for (std::size_t x = 0; x < params.width; ++x) {
      base(x, y) =
          clamp_pixel(rng.gaussian(params.background, params.background_noise));
    }
  }
  for (std::size_t s = 0; s < params.stars; ++s) {
    const double cx = rng.uniform(0.0, static_cast<double>(params.width));
    const double cy = rng.uniform(0.0, static_cast<double>(params.height));
    const double peak = rng.uniform(params.star_peak_min, params.star_peak_max);
    const double psf = rng.uniform(params.psf_sigma_min, params.psf_sigma_max);
    const double reach = 4.0 * psf;
    const auto x_lo = static_cast<std::size_t>(std::max(0.0, cx - reach));
    const auto y_lo = static_cast<std::size_t>(std::max(0.0, cy - reach));
    const auto x_hi = static_cast<std::size_t>(
        std::min(static_cast<double>(params.width) - 1.0, cx + reach));
    const auto y_hi = static_cast<std::size_t>(
        std::min(static_cast<double>(params.height) - 1.0, cy + reach));
    for (std::size_t y = y_lo; y <= y_hi && y < params.height; ++y) {
      for (std::size_t x = x_lo; x <= x_hi && x < params.width; ++x) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        const double add =
            peak * std::exp(-(dx * dx + dy * dy) / (2 * psf * psf));
        base(x, y) = clamp_pixel(static_cast<double>(base(x, y)) + add);
      }
    }
  }

  common::TemporalStack<std::uint16_t> out(params.width, params.height, frames);
  for (std::size_t y = 0; y < params.height; ++y) {
    for (std::size_t x = 0; x < params.width; ++x) {
      double level = static_cast<double>(base(x, y));
      out(x, y, 0) = clamp_pixel(level);
      for (std::size_t t = 1; t < frames; ++t) {
        level += rng.gaussian(0.0, sigma);
        out(x, y, t) = clamp_pixel(level);
      }
    }
  }
  return out;
}

common::TemporalStack<std::uint16_t> oracle_telemetry_stack(
    common::Rng& rng, const datagen::TelemetryParams& params) {
  common::TemporalStack<std::uint16_t> stack(params.channels, 1,
                                             params.samples);
  for (std::size_t x = 0; x < params.channels; ++x) {
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
      stack(x, 0, i) = clamp_pixel(v);
    }
  }
  return stack;
}

}  // namespace spacefts::check
