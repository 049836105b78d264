#include "spacefts/edac/hamming.hpp"

#include <bit>

namespace spacefts::edac {

namespace {

// Code-word layout: positions 1..71 in standard Hamming numbering.
// Positions 1, 2, 4, 8, 16, 32, 64 hold the seven Hamming parity bits;
// every other position up to 71 holds one data bit, in ascending order.
// Bit 0 of the parity byte is Hamming p1 (position 1) ... bit 6 is p64;
// bit 7 is the overall (extended) parity over all 72 bits.

/// Code-word position of data bit `i` (0-based), skipping parity slots.
constexpr int data_position(int i) noexcept {
  // Precomputable: walk positions 1.. skipping powers of two.
  int position = 0;
  int seen = -1;
  while (seen < i) {
    ++position;
    if ((position & (position - 1)) != 0) ++seen;  // not a power of two
  }
  return position;
}

/// Hamming parity bit j covers every code-word position with bit j set, so
/// it is the parity of the data bits masked by at[j].
struct ParityMasks {
  std::uint64_t at[7];
  constexpr ParityMasks() : at{} {
    for (int i = 0; i < 64; ++i) {
      const int position = data_position(i);
      for (int j = 0; j < 7; ++j) {
        if ((position >> j) & 1) at[j] |= std::uint64_t{1} << i;
      }
    }
  }
};
constexpr ParityMasks kParityMasks{};

/// Index of the data bit stored at code-word position `pos`, or -1 if the
/// position holds a parity bit / is out of range.
[[nodiscard]] constexpr int data_index_of_position(int pos) noexcept {
  if (pos <= 0 || (pos & (pos - 1)) == 0) return -1;
  int index = -1;
  for (int p = 1; p <= pos; ++p) {
    if ((p & (p - 1)) != 0) ++index;
  }
  return index <= 63 ? index : -1;
}

}  // namespace

std::uint8_t encode_parity(std::uint64_t data) noexcept {
  std::uint32_t hamming = 0;  // 7 significant bits
  for (int j = 0; j < 7; ++j) {
    hamming |= static_cast<std::uint32_t>(
                   std::popcount(data & kParityMasks.at[j]) & 1)
               << j;
  }
  std::uint8_t parity = static_cast<std::uint8_t>(hamming);
  // Overall parity covers all 72 bits: data + the 7 Hamming bits.  The
  // Hamming bits sit in the low 7 bits, so one parity of the XOR covers both.
  if (std::popcount(data ^ hamming) & 1) {
    parity = static_cast<std::uint8_t>(parity | 0x80);
  }
  return parity;
}

DecodeResult decode(std::uint64_t data, std::uint8_t parity) noexcept {
  DecodeResult out{data, DecodeStatus::kClean};
  const std::uint8_t expected = encode_parity(data);
  const std::uint8_t syndrome_bits =
      static_cast<std::uint8_t>((expected ^ parity) & 0x7F);
  // Overall-parity check over the received 72 bits.
  const bool odd = std::popcount(data ^ (parity & 0x7Fu)) & 1;
  const bool overall_stored = (parity & 0x80) != 0;
  const bool overall_mismatch = odd != overall_stored;

  if (syndrome_bits == 0 && !overall_mismatch) {
    return out;  // clean
  }
  if (syndrome_bits == 0 && overall_mismatch) {
    // The overall parity bit itself flipped.
    out.status = DecodeStatus::kCorrected;
    return out;
  }
  if (overall_mismatch) {
    // Odd number of flips with a non-zero syndrome: a single-bit error at
    // code-word position `syndrome_bits`.
    const int index = data_index_of_position(syndrome_bits);
    if (index >= 0) {
      out.data = data ^ (std::uint64_t{1} << index);
    }
    // index < 0: the flipped bit was one of the Hamming parity bits — the
    // data is intact either way.
    out.status = DecodeStatus::kCorrected;
    return out;
  }
  // Non-zero syndrome with even overall parity: a double error.  SEC-DED
  // detects it but cannot repair.
  out.status = DecodeStatus::kUncorrectable;
  return out;
}

}  // namespace spacefts::edac
