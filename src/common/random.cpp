#include "spacefts/common/random.hpp"

#include <cmath>
#include <numbers>

namespace spacefts::common {

double Rng::gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller: u1 must be strictly positive for the log.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

void RngSkipper::uniforms(std::size_t n) noexcept {
  for (; n > 0; --n) (void)rng_();
}

void RngSkipper::gaussians(std::size_t n) noexcept {
  if (n == 0) return;
  if (rng_.has_cached_gaussian_) {
    rng_.has_cached_gaussian_ = false;
    pending_ = false;
    --n;
  }
  // Each pair draws u1 (redrawn while it is 0, as in gaussian()) and u2.
  const auto draw_pair = [this] {
    double u1 = rng_.uniform();
    while (u1 <= 0.0) u1 = rng_.uniform();
    (void)rng_.uniform();
  };
  for (; n >= 2; n -= 2) draw_pair();
  if (n == 1) {
    pair_start_ = rng_;
    draw_pair();
    rng_.has_cached_gaussian_ = true;
    pending_ = true;
  }
}

void RngSkipper::settle() noexcept {
  if (!pending_) return;
  Rng replay = pair_start_;
  (void)replay.gaussian();
  rng_.cached_gaussian_ = replay.cached_gaussian_;
  pending_ = false;
}

}  // namespace spacefts::common
