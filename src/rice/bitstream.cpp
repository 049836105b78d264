#include "spacefts/rice/bitstream.hpp"

namespace spacefts::rice {

void BitWriter::put(std::uint64_t value, unsigned count) {
  acc_ = (acc_ << count) | (value & ((std::uint64_t{1} << count) - 1));
  pending_ += count;
  if (pending_ >= 32) {
    pending_ -= 32;
    const auto word = static_cast<std::uint32_t>(acc_ >> pending_);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + 4);
    bytes_[at] = static_cast<std::uint8_t>(word >> 24);
    bytes_[at + 1] = static_cast<std::uint8_t>(word >> 16);
    bytes_[at + 2] = static_cast<std::uint8_t>(word >> 8);
    bytes_[at + 3] = static_cast<std::uint8_t>(word);
  }
}

void BitWriter::write_bits(std::uint64_t value, unsigned count) {
  if (count > 32) {
    put(value >> 32, count - 32);
    count = 32;
  }
  put(value, count);
}

void BitWriter::write_unary(std::uint64_t count) {
  for (; count >= 32; count -= 32) put(0xFFFFFFFFu, 32);
  // count < 32 ones, then the terminating zero.
  put(((std::uint64_t{1} << count) - 1) << 1, static_cast<unsigned>(count) + 1);
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (pending_ > 0) {
    const std::uint64_t tail = acc_ << (64 - pending_);  // left-aligned
    for (unsigned i = 0; i < (pending_ + 7) / 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(tail >> (56 - 8 * i)));
    }
  }
  std::vector<std::uint8_t> out = std::move(bytes_);
  // Reset so a reused writer starts a fresh stream.
  bytes_.clear();
  acc_ = 0;
  pending_ = 0;
  return out;
}

std::uint64_t BitReader::window_near_end(std::span<const std::uint8_t> bytes,
                                         std::size_t pos) noexcept {
  const std::size_t byte = pos / 8;
  std::uint64_t word = 0;
  for (std::size_t i = byte; i < bytes.size(); ++i) {
    word |= std::uint64_t{bytes[i]} << (56 - 8 * (i - byte));
  }
  return word << (pos % 8);
}

void BitReader::fail(const char* what) { throw BitstreamError(what); }

}  // namespace spacefts::rice
