#include "spacefts/check/fault_oracle.hpp"

#include <concepts>

namespace spacefts::check {

namespace {

template <std::unsigned_integral T>
std::vector<T> per_bit_mask(double gamma0, std::size_t words,
                            common::Rng& rng) {
  std::vector<T> out(words, T{0});
  if (gamma0 <= 0.0) return out;
  for (auto& word : out) {
    T m = 0;
    for (std::size_t b = 0; b < sizeof(T) * 8; ++b) {
      if (rng.bernoulli(gamma0)) m = static_cast<T>(m | (T{1} << b));
    }
    word = m;
  }
  return out;
}

}  // namespace

std::vector<std::uint16_t> oracle_uncorrelated_mask16(double gamma0,
                                                      std::size_t words,
                                                      common::Rng& rng) {
  return per_bit_mask<std::uint16_t>(gamma0, words, rng);
}

std::vector<std::uint32_t> oracle_uncorrelated_mask32(double gamma0,
                                                      std::size_t words,
                                                      common::Rng& rng) {
  return per_bit_mask<std::uint32_t>(gamma0, words, rng);
}

}  // namespace spacefts::check
