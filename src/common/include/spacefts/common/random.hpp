/// \file random.hpp
/// Deterministic, portable pseudo-random number generation.
///
/// All stochastic components of the library (fault injection, dataset
/// synthesis, cosmic-ray arrival) draw from this generator so that every
/// experiment is exactly reproducible from a single 64-bit seed, regardless
/// of platform or standard-library implementation.  The engine is
/// xoshiro256** seeded through SplitMix64 (Blackman & Vigna), and Gaussian
/// variates use a Box–Muller transform rather than std::normal_distribution,
/// whose output is implementation-defined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace spacefts::common {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless two-index stream seed: a SplitMix64 chain over (base, a, b).
/// The result depends only on the indices, never on call order or thread
/// scheduling, so campaign trials, serve-workload requests, and any other
/// indexed consumer derive replayable sub-streams that are bit-identical
/// for every thread count.
[[nodiscard]] constexpr std::uint64_t derive_stream_seed(
    std::uint64_t base, std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = base;
  (void)splitmix64(state);
  state ^= 0x9e3779b97f4a7c15ULL * (a + 1);
  (void)splitmix64(state);
  state ^= 0xbf58476d1ce4e5b9ULL * (b + 1);
  return splitmix64(state);
}

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with 2^256-1 period.
///
/// Satisfies std::uniform_random_bit_generator so it can also feed standard
/// algorithms when exact reproducibility across platforms is not required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose full 256-bit state is derived from \p seed
  /// via SplitMix64, as recommended by the xoshiro authors.
  explicit constexpr Rng(std::uint64_t seed = 0x5eedcafef00dULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly distributed bits.
  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of resolution.
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). \pre bound > 0.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire-style rejection-free multiply-shift is fine here: bias is
    // < 2^-64 * bound, negligible for every bound used in this library.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>((*this)()) * bound) >> 64);
  }

  /// Bernoulli draw with success probability \p p (clamped to [0,1]).
  [[nodiscard]] constexpr bool bernoulli(double p) noexcept {
    return uniform() < p;
  }

  /// Standard normal variate (Box–Muller; one value per call, the pair's
  /// second member is cached).
  [[nodiscard]] double gaussian() noexcept;

  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
  }

  /// Derives an independent child generator; used to give each dataset /
  /// node / trial its own stream without correlation.
  [[nodiscard]] constexpr Rng split() noexcept { return Rng{(*this)()}; }

 private:
  friend class RngSkipper;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Advances an Rng exactly as a sequence of its draws would, without the
/// Box–Muller log/sqrt/sin/cos work, so one serial pass can snapshot a
/// stream at the boundaries of independent work items (image rows,
/// telemetry channels) and the items can then regenerate in parallel from
/// their snapshots.
///
/// A skipped gaussian() pair whose second value would stay cached is only
/// evaluated when a snapshot (or the end of the skip) needs that value, and
/// then through gaussian() itself, so the cached value is bit-identical.
class RngSkipper {
 public:
  explicit RngSkipper(Rng& rng) noexcept : rng_(rng) {}
  /// Leaves the referenced generator exactly as the skipped calls would.
  ~RngSkipper() { settle(); }
  RngSkipper(const RngSkipper&) = delete;
  RngSkipper& operator=(const RngSkipper&) = delete;

  /// Skips \p n single-draw calls (operator(), uniform, below, bernoulli).
  void uniforms(std::size_t n) noexcept;

  /// Skips \p n gaussian() calls.
  void gaussians(std::size_t n) noexcept;

  /// The generator as the skipped calls would have left it.
  [[nodiscard]] Rng snapshot() noexcept {
    settle();
    return rng_;
  }

 private:
  void settle() noexcept;

  Rng& rng_;
  Rng pair_start_;       ///< the stream before the pending pair's draws
  bool pending_ = false;  ///< rng_'s cached value is not evaluated yet
};

}  // namespace spacefts::common
