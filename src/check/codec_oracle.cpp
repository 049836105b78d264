#include "spacefts/check/codec_oracle.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"

namespace spacefts::check {

namespace {

constexpr unsigned kEscape = 31;           ///< k field of a verbatim block
constexpr unsigned kMaxK = 16;             ///< largest legal Rice parameter
constexpr std::uint64_t kMaxMapped = 131070;  ///< zigzag(65535)

/// Code-word position of data bit `i` in the (72, 64) layout: positions
/// 1, 2, 4, ... 64 hold parity, the data bits fill the rest in order.
constexpr int data_position(int i) noexcept {
  int position = 0;
  int seen = -1;
  while (seen < i) {
    ++position;
    if ((position & (position - 1)) != 0) ++seen;
  }
  return position;
}

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

void OracleBitWriter::write_bits(std::uint64_t value, unsigned count) {
  for (unsigned i = count; i-- > 0;) {
    const bool bit = (value >> i) & 1;
    const std::size_t byte_index = bit_count_ / 8;
    if (byte_index == bytes_.size()) bytes_.push_back(0);
    if (bit) {
      bytes_[byte_index] = static_cast<std::uint8_t>(
          bytes_[byte_index] | (0x80u >> (bit_count_ % 8)));
    }
    ++bit_count_;
  }
}

void OracleBitWriter::write_unary(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) write_bits(1, 1);
  write_bits(0, 1);
}

std::vector<std::uint8_t> OracleBitWriter::finish() {
  std::vector<std::uint8_t> out = std::move(bytes_);
  bytes_.clear();
  bit_count_ = 0;
  return out;
}

bool OracleBitReader::read_bit() {
  if (pos_ >= size()) {
    throw rice::BitstreamError("BitReader: past end of stream");
  }
  const bool bit = (bytes_[pos_ / 8] >> (7 - pos_ % 8)) & 1;
  ++pos_;
  return bit;
}

std::uint64_t OracleBitReader::read_bits(unsigned count) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < count; ++i) {
    out = (out << 1) | static_cast<std::uint64_t>(read_bit());
  }
  return out;
}

std::uint64_t OracleBitReader::read_unary(std::uint64_t max_run) {
  std::uint64_t count = 0;
  while (read_bit()) {
    if (++count > max_run) {
      throw rice::BitstreamError("BitReader: unary run exceeds bound");
    }
  }
  return count;
}

std::vector<std::uint8_t> oracle_compress16(
    std::span<const std::uint16_t> samples) {
  OracleBitWriter writer;
  std::uint16_t previous = 0;
  for (std::size_t i = 0; i < samples.size(); i += rice::kBlockSamples) {
    const std::size_t block_len =
        std::min(rice::kBlockSamples, samples.size() - i);
    std::vector<std::uint32_t> mapped;
    for (std::size_t j = 0; j < block_len; ++j) {
      const std::int32_t delta = static_cast<std::int32_t>(samples[i + j]) -
                                 static_cast<std::int32_t>(previous);
      mapped.push_back(delta >= 0 ? static_cast<std::uint32_t>(delta) * 2
                                  : static_cast<std::uint32_t>(-delta) * 2 - 1);
      previous = samples[i + j];
    }
    unsigned best_k = 0;
    std::size_t best_cost = std::numeric_limits<std::size_t>::max();
    for (unsigned k = 0; k <= kMaxK; ++k) {
      std::size_t cost = 0;
      for (std::uint32_t m : mapped) cost += (m >> k) + 1 + k;
      if (cost < best_cost) {
        best_cost = cost;
        best_k = k;
      }
    }
    if (block_len * 16 < best_cost) {
      writer.write_bits(kEscape, 5);
      for (std::size_t j = 0; j < block_len; ++j) {
        writer.write_bits(samples[i + j], 16);
      }
    } else {
      writer.write_bits(best_k, 5);
      for (std::uint32_t m : mapped) {
        writer.write_unary(m >> best_k);
        writer.write_bits(m, best_k);
      }
    }
  }
  return writer.finish();
}

std::vector<std::uint16_t> oracle_decompress16(
    std::span<const std::uint8_t> stream, std::size_t count) {
  OracleBitReader reader(stream);
  std::vector<std::uint16_t> out;
  std::uint16_t previous = 0;
  while (out.size() < count) {
    const auto k = static_cast<unsigned>(reader.read_bits(5));
    const std::size_t block_len =
        std::min(rice::kBlockSamples, count - out.size());
    if (k == kEscape) {
      for (std::size_t j = 0; j < block_len; ++j) {
        previous = static_cast<std::uint16_t>(reader.read_bits(16));
        out.push_back(previous);
      }
      continue;
    }
    if (k > kMaxK) throw rice::BitstreamError("decompress16: invalid k");
    for (std::size_t j = 0; j < block_len; ++j) {
      const std::uint64_t quotient = reader.read_unary(kMaxMapped >> k);
      const auto m =
          static_cast<std::uint32_t>((quotient << k) | reader.read_bits(k));
      const std::int32_t delta = (m & 1) ? -static_cast<std::int32_t>(m / 2) - 1
                                         : static_cast<std::int32_t>(m / 2);
      previous = static_cast<std::uint16_t>(previous + delta);
      out.push_back(previous);
    }
  }
  return out;
}

std::uint8_t oracle_encode_parity(std::uint64_t data) noexcept {
  std::uint32_t hamming = 0;
  for (std::uint64_t rest = data; rest != 0; rest &= rest - 1) {
    hamming ^= static_cast<std::uint32_t>(data_position(std::countr_zero(rest)));
  }
  std::uint8_t parity = static_cast<std::uint8_t>(hamming & 0x7F);
  const int ones = std::popcount(data) + std::popcount(hamming & 0x7Fu);
  if (ones % 2 != 0) parity = static_cast<std::uint8_t>(parity | 0x80);
  return parity;
}

std::uint32_t oracle_crc32(std::span<const std::uint8_t> bytes,
                           std::uint32_t crc) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : bytes) {
    c = kCrcTable[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace spacefts::check
