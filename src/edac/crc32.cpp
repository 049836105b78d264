#include "spacefts/edac/crc32.hpp"

#include <array>

namespace spacefts::edac {

namespace {

/// Slicing-by-8 tables: at[0] is the bytewise table of the reflected
/// polynomial; at[k][n] is the CRC of byte n followed by k zero bytes, so
/// eight table lookups advance the register over eight message bytes.
struct SliceTables {
  std::array<std::array<std::uint32_t, 256>, 8> at{};
  constexpr SliceTables() {
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      at[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t n = 0; n < 256; ++n) {
        at[k][n] = (at[k - 1][n] >> 8) ^ at[0][at[k - 1][n] & 0xFFu];
      }
    }
  }
};

constexpr SliceTables kTables{};

/// The 4 bytes at \p p as one little-endian word.
[[nodiscard]] std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc) noexcept {
  const auto& t = kTables.at;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void frame_append_crc(std::vector<std::uint8_t>& payload) {
  const std::uint32_t c = crc32(payload);
  payload.push_back(static_cast<std::uint8_t>(c & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 8) & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 16) & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 24) & 0xFFu));
}

bool frame_verify(std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return false;
  const auto payload = frame.first(frame.size() - 4);
  const auto trailer = frame.last(4);
  const std::uint32_t stored = static_cast<std::uint32_t>(trailer[0]) |
                               (static_cast<std::uint32_t>(trailer[1]) << 8) |
                               (static_cast<std::uint32_t>(trailer[2]) << 16) |
                               (static_cast<std::uint32_t>(trailer[3]) << 24);
  return crc32(payload) == stored;
}

std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return {};
  return frame.first(frame.size() - 4);
}

}  // namespace spacefts::edac
