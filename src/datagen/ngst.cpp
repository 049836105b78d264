#include "spacefts/datagen/ngst.hpp"

#include <cmath>
#include <stdexcept>

#include "stream_items.hpp"

namespace spacefts::datagen {

std::uint16_t clamp_pixel(double value) noexcept {
  if (value <= 0.0) return 0;
  if (value >= static_cast<double>(kPixelMax)) return kPixelMax;
  return static_cast<std::uint16_t>(std::lround(value));
}

std::vector<std::uint16_t> NgstSimulator::sequence(std::size_t frames,
                                                   double start, double sigma) {
  if (frames == 0) throw std::invalid_argument("sequence: frames == 0");
  std::vector<std::uint16_t> out(frames);
  double level = start;
  out[0] = clamp_pixel(level);
  for (std::size_t i = 1; i < frames; ++i) {
    level += rng_.gaussian(0.0, sigma);
    out[i] = clamp_pixel(level);
  }
  return out;
}

common::Image<std::uint16_t> NgstSimulator::base_scene(
    const SceneParams& params) {
  return scene(params, 1);
}

common::Image<std::uint16_t> NgstSimulator::scene(const SceneParams& params,
                                                  std::size_t threads) {
  common::Image<std::uint16_t> img(params.width, params.height);
  // Background with spatial noise.
  detail::for_each_item(
      rng_, params.height, threads,
      [&](common::RngSkipper& skip) { skip.gaussians(params.width); },
      [&](std::size_t y, common::Rng& rng) {
        const double mean = params.background;
        const double noise = params.background_noise;
        for (auto& pixel : img.row(y)) {
          pixel = clamp_pixel(rng.gaussian(mean, noise));
        }
      });
  // Point sources with Gaussian PSFs, truncated at 4σ.
  for (std::size_t s = 0; s < params.stars; ++s) {
    const double cx = rng_.uniform(0.0, static_cast<double>(params.width));
    const double cy = rng_.uniform(0.0, static_cast<double>(params.height));
    const double peak = rng_.uniform(params.star_peak_min, params.star_peak_max);
    const double psf = rng_.uniform(params.psf_sigma_min, params.psf_sigma_max);
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
        const double add = peak * std::exp(-(dx * dx + dy * dy) / (2 * psf * psf));
        img(x, y) = clamp_pixel(static_cast<double>(img(x, y)) + add);
      }
    }
  }
  return img;
}

common::TemporalStack<std::uint16_t> NgstSimulator::stack(
    std::size_t frames, const SceneParams& params, double sigma,
    std::size_t threads) {
  if (frames == 0) throw std::invalid_argument("stack: frames == 0");
  const auto base = scene(params, threads);
  common::TemporalStack<std::uint16_t> out(params.width, params.height, frames);
  detail::for_each_item(
      rng_, params.height, threads,
      [&](common::RngSkipper& skip) {
        skip.gaussians(params.width * (frames - 1));
      },
      [&](std::size_t y, common::Rng& rng) {
        // Locals, not captures: the captures escape into the pool call, so
        // the compiler would reload them after every gaussian() call.
        const std::size_t width = params.width;
        const std::size_t plane = width * params.height;
        const std::size_t depth = frames;
        const double step = sigma;
        std::uint16_t* const row = out.cube().voxels().data() + y * width;
        for (std::size_t x = 0; x < width; ++x) {
          double level = static_cast<double>(base(x, y));
          row[x] = clamp_pixel(level);
          for (std::size_t t = 1; t < depth; ++t) {
            level += rng.gaussian(0.0, step);
            row[t * plane + x] = clamp_pixel(level);
          }
        }
      });
  return out;
}

}  // namespace spacefts::datagen
