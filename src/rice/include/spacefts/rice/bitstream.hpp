/// \file bitstream.hpp
/// MSB-first bit-level I/O used by the Rice codec.
///
/// Both ends work a machine word at a time: the writer packs bits into a
/// 64-bit accumulator and flushes whole 32-bit words, the reader serves each
/// request from a 64-bit big-endian window onto the buffer.  The streams are
/// bit-for-bit those of a one-bit-at-a-time coder (check/codec_oracle.hpp
/// keeps that coder as the differential reference).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace spacefts::rice {

/// Thrown when a reader runs past the end of its buffer.
class BitstreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends bits MSB-first into a growing byte buffer.
class BitWriter {
 public:
  /// Writes the low \p count bits of \p value (MSB of that slice first).
  /// \pre count <= 64.
  void write_bits(std::uint64_t value, unsigned count);

  /// Writes \p count consecutive one-bits followed by a zero (unary code).
  void write_unary(std::uint64_t count);

  /// Pads to a byte boundary with zeros and returns the buffer.  The writer
  /// is reset to its initial state, so it can be reused for another stream.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Bits written so far (before padding).
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return bytes_.size() * 8 + pending_;
  }

 private:
  /// Appends the low \p count bits of \p value. \pre count <= 32.
  void put(std::uint64_t value, unsigned count);

  std::vector<std::uint8_t> bytes_;  ///< flushed whole 32-bit words
  std::uint64_t acc_ = 0;            ///< low pending_ bits not yet flushed
  unsigned pending_ = 0;             ///< always < 32 between calls
};

/// Reads bits MSB-first from a byte buffer.  The hot paths are inline so a
/// decode loop keeps the buffer and position in registers.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads \p count bits as an unsigned value. \pre count <= 64.
  /// \throws BitstreamError past the end.
  [[nodiscard]] std::uint64_t read_bits(unsigned count) {
    if (count == 0) return 0;
    if (count > size() - pos_) past_end();
    const std::uint64_t value = window() >> (64 - count);
    pos_ += count;
    return value;
  }

  /// Reads a unary code: the number of one-bits before the next zero.
  /// \param max_run upper bound on the run length a well-formed stream can
  ///        contain at this position; a longer run is corruption and throws
  ///        instead of consuming the rest of the stream.
  /// \throws BitstreamError past the end or when the run exceeds \p max_run.
  [[nodiscard]] std::uint64_t read_unary(
      std::uint64_t max_run = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t count = 0;
    for (;;) {
      const std::size_t left = size() - pos_;
      if (left == 0) past_end();
      // Bits past the end read as zero, so a run never counts past them.
      const auto ones = static_cast<unsigned>(std::countl_one(window()));
      if (ones > max_run - count) {
        // Consume the run up to the one-bit that breaks the bound.
        pos_ += static_cast<std::size_t>(max_run - count) + 1;
        fail("BitReader: unary run exceeds bound");
      }
      count += ones;
      if (ones == 64) {
        pos_ += 64;
        continue;
      }
      if (ones == left) past_end();
      pos_ += ones + 1;
      return count;
    }
  }

  /// One Rice code word: read_unary(\p max_run), then read_bits(\p k),
  /// returned as (quotient << k) | remainder.  A word that lies whole in
  /// the window decodes from that one window; any other word takes exactly
  /// the two calls, throws and position() included.  \pre k < 64.
  [[nodiscard]] std::uint64_t read_rice(unsigned k, std::uint64_t max_run) {
    const std::uint64_t word = window();
    const auto ones = static_cast<unsigned>(std::countl_one(word));
    const unsigned length = ones + 1 + k;
    if (length <= 64 && length <= size() - pos_ && ones <= max_run) {
      pos_ += length;
      const std::uint64_t remainder =
          k == 0 ? 0 : (word << (ones + 1)) >> (64 - k);
      return (std::uint64_t{ones} << k) | remainder;
    }
    const std::uint64_t quotient = read_unary(max_run);
    return (quotient << k) | read_bits(k);
  }

  /// Bits consumed so far.  After a throw: where a bit-serial reader would
  /// have stopped (the end of the stream, or just past the one-bit that
  /// broke max_run).
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Total bits available.
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size() * 8; }

 private:
  /// The 64 stream bits from position(), MSB first; bits past the end of
  /// the buffer read as zero.  Never loads outside the buffer.
  [[nodiscard]] std::uint64_t window() const noexcept {
    const std::size_t byte = pos_ / 8;
    const unsigned shift = pos_ % 8;
    if (byte + 8 >= bytes_.size()) return window_near_end(bytes_, pos_);
    std::uint64_t word = 0;
    std::memcpy(&word, bytes_.data() + byte, sizeof word);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    // The ninth byte supplies the low `shift` bits (shift 0: none).
    return (word << shift) |
           (std::uint64_t{bytes_[byte + 8]} << shift >> 8);
  }

  /// Consumes the rest of the stream and throws, as a bit-serial reader
  /// would.
  [[noreturn]] void past_end() {
    pos_ = size();
    fail("BitReader: past end of stream");
  }

  /// window() when fewer than 9 bytes remain from \p pos: at most 8 bytes
  /// are left, so no ninth byte contributes.
  [[nodiscard]] static std::uint64_t window_near_end(
      std::span<const std::uint8_t> bytes, std::size_t pos) noexcept;

  /// Throws BitstreamError(\p what); out of line, off the hot paths.
  [[noreturn]] static void fail(const char* what);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace spacefts::rice
