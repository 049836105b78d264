/// \file models.hpp
/// The paper's two bit-flip fault models (§2.2.2, §2.2.3).
///
/// Both models produce an XOR *fault mask* over a word buffer rather than
/// mutating data in place: the mask doubles as ground truth for the
/// correction/false-alarm accounting in spacefts::metrics, and lets one
/// fault pattern be replayed against several preprocessing algorithms —
/// exactly how the paper compares Algo_NGST with the smoothing baselines on
/// identical corrupted inputs.  Paths that only apply the faults (the
/// downlink chain, the dist worker) use UncorrelatedFaultModel::inject16,
/// which places the same flips in place without building the mask.
///
/// * UncorrelatedFaultModel — every bit flips i.i.d. with probability Γ₀,
///   modelling flips at the source, in transit, or in memory (§2.2.2).
/// * CorrelatedFaultModel — run model of §2.2.3 / Eq. (2): the probability
///   that bit ω flips grows with the length R of the run of flipped bits
///   immediately preceding it, taking the longer of the horizontal and
///   vertical runs in the 2-D memory organisation:
///       Γ_corr(ω) = Σ_{j=1..R} Γ_ini^j   (Γ_ini for a fresh run, R = 0).
///   For Γ_ini < 0.5 this converges to Γ_ini/(1-Γ_ini) < 1.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "spacefts/common/bitops.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::fault {

/// Bits-per-word trait used to size bit grids.
template <std::unsigned_integral T>
inline constexpr std::size_t kBitsPerWord = sizeof(T) * 8;

/// Uncorrelated i.i.d. bit flips (§2.2.2).
///
/// Every entry point runs one position sampler: it draws the gap to the next
/// flipped bit from Geometric(Γ₀) rather than one Bernoulli(Γ₀) per bit, so
/// the cost is O(flips), not O(bits), and the law is still exactly i.i.d.
/// Bernoulli(Γ₀) per bit.  For equal seeds mask16() and inject16() consume
/// the same draws and place the same flips.
class UncorrelatedFaultModel {
 public:
  /// \param gamma0 static per-bit flip probability Γ₀ in [0, 1].
  /// \throws std::invalid_argument outside [0, 1].
  explicit UncorrelatedFaultModel(double gamma0);

  [[nodiscard]] double gamma0() const noexcept { return gamma0_; }

  /// Generates an XOR mask for \p words 16-bit words.
  [[nodiscard]] std::vector<std::uint16_t> mask16(std::size_t words,
                                                  common::Rng& rng) const;

  /// Generates an XOR mask for \p words 32-bit words.
  [[nodiscard]] std::vector<std::uint32_t> mask32(std::size_t words,
                                                  common::Rng& rng) const;

  /// XORs the flips straight into \p data and returns how many bits it
  /// flipped.  Byte for byte the same as apply_mask(data, mask16(data.size(),
  /// rng)) at an equal seed, without the dense mask or the counting pass.
  std::size_t inject16(std::span<std::uint16_t> data, common::Rng& rng) const;

 private:
  template <std::unsigned_integral T>
  [[nodiscard]] std::vector<T> mask(std::size_t words, common::Rng& rng) const;

  double gamma0_;
};

/// Correlated run-model bit flips (§2.2.3, Eq. 2) over a 2-D memory
/// organisation: the buffer is interpreted as \p rows rows of
/// words_per_row * bits-per-word bit columns; horizontal runs extend along a
/// row, vertical runs along a column of the bit grid.
class CorrelatedFaultModel {
 public:
  /// \param gamma_ini base probability Γ_ini with which a fresh run starts.
  /// \throws std::invalid_argument outside [0, 1).
  explicit CorrelatedFaultModel(double gamma_ini);

  [[nodiscard]] double gamma_ini() const noexcept { return gamma_ini_; }

  /// Flip probability for a bit preceded by a run of length \p run
  /// (Eq. 2; clamped to 1).
  [[nodiscard]] double flip_probability(std::size_t run) const noexcept;

  /// Generates an XOR mask for a rows x words_per_row grid of 16-bit words.
  /// \throws std::invalid_argument if either dimension is zero.
  [[nodiscard]] std::vector<std::uint16_t> mask16(std::size_t words_per_row,
                                                  std::size_t rows,
                                                  common::Rng& rng) const;

  /// Generates an XOR mask for a rows x words_per_row grid of 32-bit words.
  [[nodiscard]] std::vector<std::uint32_t> mask32(std::size_t words_per_row,
                                                  std::size_t rows,
                                                  common::Rng& rng) const;

 private:
  template <std::unsigned_integral T>
  [[nodiscard]] std::vector<T> mask(std::size_t words_per_row, std::size_t rows,
                                    common::Rng& rng) const;

  double gamma_ini_;
};

/// Rectangular block faults: §8 discusses "correlated block faults occurring
/// in contiguous regions in memory" — the regime its interleaved-mapping
/// recommendation targets.  Each event flips a dense rectangular patch of
/// the 2-D bit grid (an SEU burst, a partial row/column failure), leaving
/// the rest of the memory clean.
class BlockFaultModel {
 public:
  /// \param events        number of block events per mask
  /// \param width_bits    horizontal extent of a block, in bit columns
  /// \param height_rows   vertical extent of a block, in rows
  /// \param density       probability each bit inside a block flips
  /// \throws std::invalid_argument for zero extents or density outside [0,1].
  BlockFaultModel(std::size_t events, std::size_t width_bits,
                  std::size_t height_rows, double density = 0.9);

  [[nodiscard]] std::size_t events() const noexcept { return events_; }

  /// Generates an XOR mask for a rows x words_per_row grid of 16-bit words.
  /// Block origins are uniform; blocks clip at the grid edges.
  /// \throws std::invalid_argument if either dimension is zero.
  [[nodiscard]] std::vector<std::uint16_t> mask16(std::size_t words_per_row,
                                                  std::size_t rows,
                                                  common::Rng& rng) const;

 private:
  std::size_t events_;
  std::size_t width_bits_;
  std::size_t height_rows_;
  double density_;
};

/// XORs \p mask into \p data in place. \throws std::invalid_argument on a
/// length mismatch.
template <std::unsigned_integral T>
void apply_mask(std::span<T> data, std::span<const T> mask);

/// XORs a 32-bit mask into the bit patterns of a float buffer in place —
/// how OTIS radiance cubes are corrupted.  \throws std::invalid_argument on
/// a length mismatch.
void apply_mask_float(std::span<float> data, std::span<const std::uint32_t> mask);

/// Total set bits in a mask (= number of injected faults).
template <std::unsigned_integral T>
[[nodiscard]] std::size_t count_faults(std::span<const T> mask) noexcept;

/// Permutation mapping logical index -> physical index that interleaves
/// neighbouring logical words \p ways apart in physical memory.  Implements
/// the paper's §8 recommendation: "storing the neighbouring pixels using a
/// preset mapping into different physical regions … so that correlated
/// block faults … will not affect the temporal or spatial redundancy".
/// interleave_permutation(n, 1) is the identity.
/// \throws std::invalid_argument if ways == 0.
[[nodiscard]] std::vector<std::size_t> interleave_permutation(std::size_t n,
                                                              std::size_t ways);

/// Applies \p perm to \p data: out[perm[i]] = data[i].
/// \throws std::invalid_argument on a length mismatch or if perm is not a
/// permutation of [0, n).
template <typename T>
[[nodiscard]] std::vector<T> permute(std::span<const T> data,
                                     std::span<const std::size_t> perm);

/// Inverse of permute(): out[i] = data[perm[i]].
template <typename T>
[[nodiscard]] std::vector<T> unpermute(std::span<const T> data,
                                       std::span<const std::size_t> perm);

}  // namespace spacefts::fault
