#include "atm/checksum.h"

#include <array>
#include <bit>
#include <cstring>

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
  // Big-endian 16-bit words over the byte stream. The middle runs eight
  // bytes at a time in host order (RFC 1071 §2(B)): on a little-endian
  // host each 16-bit lane holds a byte-swapped word, so the lanes' folded
  // one's-complement sum, swapped back, is congruent mod 0xFFFF to the
  // big-endian one, and nonzero exactly when some byte is.
  static_assert(std::endian::native == std::endian::little,
                "InternetChecksum::update assumes a little-endian host");
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (odd_ && n > 0) {  // low byte of the word the last chunk began
    sum_ += *p++;
    --n;
    odd_ = false;
  }
  if (n >= 8) {
    std::uint64_t acc = 0;
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, sizeof w);
      acc += w;
      acc += acc < w ? 1 : 0;  // end-around carry
    }
    acc = (acc & 0xFFFFFFFFu) + (acc >> 32);
    while ((acc >> 16) != 0) acc = (acc & 0xFFFFu) + (acc >> 16);
    sum_ += ((acc & 0xFFu) << 8) | (acc >> 8);
  }
  for (; n > 0; --n, ++p) {
    sum_ += odd_ ? static_cast<std::uint64_t>(*p)
                 : static_cast<std::uint64_t>(*p) << 8;
    odd_ = !odd_;
  }
}

std::uint16_t InternetChecksum::value() const {
  std::uint64_t s = sum_;
  while ((s >> 16) != 0) s = (s & 0xFFFFu) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFFu);
}

}  // namespace osiris::atm
