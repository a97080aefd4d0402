#include "atm/wire.h"

#include <stdexcept>

namespace osiris::atm {

namespace {

constexpr std::uint8_t kPtiBom = 1u << 0;
constexpr std::uint8_t kPtiLaneEom = 1u << 1;
constexpr std::uint8_t kPtiLast = 1u << 2;

constexpr std::array<std::uint8_t, 256> make_hec_table() {
  std::array<std::uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t crc = static_cast<std::uint8_t>(i);
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 0x80) != 0
                ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)  // x^8+x^2+x+1
                : static_cast<std::uint8_t>(crc << 1);
    }
    t[static_cast<std::size_t>(i)] = crc;
  }
  return t;
}

constexpr auto kHecTable = make_hec_table();

}  // namespace

std::uint8_t hec8(const std::uint8_t* header4) {
  std::uint8_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc = kHecTable[static_cast<std::uint8_t>(crc ^ header4[i])];
  }
  // ITU I.432 adds a coset leader so an all-zero header has a non-zero HEC.
  return static_cast<std::uint8_t>(crc ^ 0x55);
}

WireCell encode_cell(const Cell& c) {
  if (c.seq >= kMaxCellsPerPdu) {
    throw std::invalid_argument("encode_cell: seq exceeds 12-bit wire field");
  }
  if (c.pdu_id >= (1u << 14)) {
    throw std::invalid_argument("encode_cell: pdu_id exceeds 14-bit wire field");
  }
  if (c.len == 0 || c.len > kCellPayload) {
    throw std::invalid_argument("encode_cell: bad payload length");
  }
  if (c.vci > kMaxVci) {
    throw std::invalid_argument("encode_cell: vci exceeds 24-bit wire field");
  }

  WireCell w{};
  // ATM UNI header: GFC=0, then the 24-bit VPI·VCI concatenation spanning
  // bytes 0..3, PTI = flag bits, CLP=0.
  w[0] = static_cast<std::uint8_t>((c.vci >> 20) & 0x0F);
  w[1] = static_cast<std::uint8_t>((c.vci >> 12) & 0xFF);
  w[2] = static_cast<std::uint8_t>((c.vci >> 4) & 0xFF);
  std::uint8_t pti = 0;
  if (c.bom()) pti |= kPtiBom;
  if (c.lane_eom()) pti |= kPtiLaneEom;
  if (c.last_cell()) pti |= kPtiLast;
  w[3] = static_cast<std::uint8_t>(((c.vci & 0x0F) << 4) | (pti << 1));
  w[4] = hec8(w.data());

  // OSIRIS AAL header: pdu_id(14) seq(12) len(6), packed big-endian.
  const std::uint32_t aal = (static_cast<std::uint32_t>(c.pdu_id) << 18) |
                            (static_cast<std::uint32_t>(c.seq) << 6) |
                            (c.len == kCellPayload ? 0u : c.len);
  w[5] = static_cast<std::uint8_t>(aal >> 24);
  w[6] = static_cast<std::uint8_t>(aal >> 16);
  w[7] = static_cast<std::uint8_t>(aal >> 8);
  w[8] = static_cast<std::uint8_t>(aal);

  std::copy(c.payload.begin(), c.payload.begin() + c.len, w.begin() + 9);
  return w;
}

std::optional<Cell> decode_cell(const WireCell& w) {
  if (hec8(w.data()) != w[4]) return std::nullopt;

  Cell c;
  c.vci = (static_cast<Vci>(w[0] & 0x0F) << 20) |
          (static_cast<Vci>(w[1]) << 12) | (static_cast<Vci>(w[2]) << 4) |
          ((w[3] >> 4) & 0x0F);
  const std::uint8_t pti = static_cast<std::uint8_t>((w[3] >> 1) & 0x07);
  c.flags = 0;
  if ((pti & kPtiBom) != 0) c.flags |= kFlagBom;
  if ((pti & kPtiLaneEom) != 0) c.flags |= kFlagLaneEom;
  if ((pti & kPtiLast) != 0) c.flags |= kFlagLastCell;

  const std::uint32_t aal = (static_cast<std::uint32_t>(w[5]) << 24) |
                            (static_cast<std::uint32_t>(w[6]) << 16) |
                            (static_cast<std::uint32_t>(w[7]) << 8) | w[8];
  c.pdu_id = static_cast<std::uint16_t>((aal >> 18) & 0x3FFF);
  c.seq = static_cast<std::uint16_t>((aal >> 6) & 0x0FFF);
  const std::uint32_t len6 = aal & 0x3F;
  if (len6 > kCellPayload) return std::nullopt;
  c.len = static_cast<std::uint8_t>(len6 == 0 ? kCellPayload : len6);

  std::copy(w.begin() + 9, w.begin() + 9 + c.len, c.payload.begin());
  return c;
}

}  // namespace osiris::atm
