#include "atm/checksum.h"

#include <array>

namespace osiris::atm {
namespace {

// Slice-by-8: table k maps a byte to its CRC contribution k bytes further
// down the stream, so eight table lookups retire eight input bytes.
// Table 0 is the classic bytewise table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

void InternetChecksum::update(std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    // Big-endian 16-bit words over the byte stream.
    sum_ += odd_ ? static_cast<std::uint64_t>(b)
                 : static_cast<std::uint64_t>(b) << 8;
    odd_ = !odd_;
  }
}

std::uint16_t InternetChecksum::value() const {
  std::uint64_t s = sum_;
  while ((s >> 16) != 0) s = (s & 0xFFFFu) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFFu);
}

}  // namespace osiris::atm
