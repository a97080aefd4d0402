// Byte-accurate 53-byte cell wire format.
//
// Layout (UNI cell format, with the OSIRIS AAL packed into the first four
// payload bytes — the overhead that leaves 44 data bytes per cell, §2.5):
//
//   byte 0   GFC(4) | VPI(4 high)          — GFC/VPI unused, zero
//   byte 1   VPI(4 low) | VCI(4 high)
//   byte 2   VCI(8 mid)
//   byte 3   VCI(4 low) | PTI(3) | CLP(1)
//   byte 4   HEC: CRC-8 (x^8+x^2+x+1) over bytes 0..3
//   byte 5   AAL: pdu_id high 8 (of 14)    — strategy A identity
//   ...      packed: pdu_id(14) seq(12) len(6)
//   byte 9.. 44 bytes of payload
//
// The three framing flags ride the PTI field as a bitfield: bit0 = BOM,
// bit1 = lane-EOM (strategy B's per-lane AAL5 framing), bit2 = last-cell
// (the extra ATM-header bit §2.6 proposes for short PDUs).
//
// Field widths bound what a cell can express: pdu_id wraps at 16384, seq
// at 4096 (a PDU may not exceed 4096 cells ≈ 176 KB), len at 44. encode()
// enforces these.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "atm/cell.h"

namespace osiris::atm {

using WireCell = std::array<std::uint8_t, kCellWire>;

/// Maximum per-PDU cell count expressible on the wire (12-bit seq).
constexpr std::uint32_t kMaxCellsPerPdu = 4096;

/// CRC-8 HEC (polynomial x^8 + x^2 + x + 1) over 4 header bytes.
std::uint8_t hec8(const std::uint8_t* header4);

/// Serializes a cell. Throws std::invalid_argument when a field exceeds
/// its wire width (seq >= 4096, pdu_id >= 16384, len > 44 or len == 0).
WireCell encode_cell(const Cell& c);

/// Parses 53 bytes. Returns nullopt if the HEC does not match (header
/// corrupted in flight) or a field is malformed. This is the only header
/// check a cell meets: the receiving framer drops what it rejects.
std::optional<Cell> decode_cell(const WireCell& w);

}  // namespace osiris::atm
