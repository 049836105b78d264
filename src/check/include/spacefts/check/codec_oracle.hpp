/// \file codec_oracle.hpp
/// Bit-serial and bytewise references for the word-at-a-time tile codecs.
///
/// rice::BitWriter/BitReader, edac::encode_parity and edac::crc32 work a
/// machine word at a time: a 64-bit accumulator and window, seven parity
/// masks, slicing-by-8 tables.  These references are the one-bit and
/// one-byte loops those codecs replaced, kept so the differential tests can
/// hold the production coders to them byte for byte, including where a
/// reader throws and how far it got.  They have no production caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace spacefts::check {

/// One-bit-at-a-time rice::BitWriter: same contract, same stream.
class OracleBitWriter {
 public:
  void write_bits(std::uint64_t value, unsigned count);
  void write_unary(std::uint64_t count);
  [[nodiscard]] std::vector<std::uint8_t> finish();
  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

/// One-bit-at-a-time rice::BitReader: same values, same position(), and it
/// throws rice::BitstreamError in the same cases with the same message.
class OracleBitReader {
 public:
  explicit OracleBitReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t read_bits(unsigned count);
  [[nodiscard]] std::uint64_t read_unary(
      std::uint64_t max_run = std::numeric_limits<std::uint64_t>::max());
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size() * 8; }

 private:
  [[nodiscard]] bool read_bit();

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// rice::compress16 on OracleBitWriter, trying every k from 0 to 16.
[[nodiscard]] std::vector<std::uint8_t> oracle_compress16(
    std::span<const std::uint16_t> samples);

/// rice::decompress16 on OracleBitReader.
[[nodiscard]] std::vector<std::uint16_t> oracle_decompress16(
    std::span<const std::uint8_t> stream, std::size_t count);

/// edac::encode_parity as the XOR of the code-word positions of the set
/// data bits (the Hamming syndrome core), one set bit at a time.
[[nodiscard]] std::uint8_t oracle_encode_parity(std::uint64_t data) noexcept;

/// edac::crc32 with one 256-entry table lookup per byte.
[[nodiscard]] std::uint32_t oracle_crc32(std::span<const std::uint8_t> bytes,
                                         std::uint32_t crc = 0) noexcept;

}  // namespace spacefts::check
