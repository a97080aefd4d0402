// Wire-format tests: the 53-byte cell codec, the CRC-8 HEC, and the
// link's bit errors.
#include <gtest/gtest.h>

#include "atm/sar.h"
#include "atm/wire.h"
#include "link/link.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "sim/rng.h"

namespace osiris::atm {
namespace {

Cell make_cell(atm::Vci vci, std::uint16_t pdu_id, std::uint16_t seq,
               std::uint8_t flags, std::uint8_t len) {
  Cell c;
  c.vci = vci;
  c.pdu_id = pdu_id;
  c.seq = seq;
  c.flags = flags;
  c.len = len;
  for (int i = 0; i < len; ++i) {
    c.payload[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i * 7 + seq);
  }
  return c;
}

TEST(Wire, RoundTripAllFields) {
  sim::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Cell c = make_cell(
        static_cast<std::uint16_t>(rng.below(65536)),
        static_cast<std::uint16_t>(rng.below(1u << 14)),
        static_cast<std::uint16_t>(rng.below(kMaxCellsPerPdu)),
        static_cast<std::uint8_t>(rng.below(8)),
        static_cast<std::uint8_t>(1 + rng.below(kCellPayload)));
    const auto back = decode_cell(encode_cell(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->vci, c.vci);
    EXPECT_EQ(back->pdu_id, c.pdu_id);
    EXPECT_EQ(back->seq, c.seq);
    EXPECT_EQ(back->flags, c.flags);
    EXPECT_EQ(back->len, c.len);
    EXPECT_TRUE(std::equal(c.payload.begin(), c.payload.begin() + c.len,
                           back->payload.begin()));
  }
}

TEST(Wire, FieldWidthLimitsEnforced) {
  Cell c = make_cell(1, 1, 1, 0, 10);
  c.seq = kMaxCellsPerPdu;
  EXPECT_THROW(encode_cell(c), std::invalid_argument);
  c.seq = 1;
  c.pdu_id = 1u << 14;
  EXPECT_THROW(encode_cell(c), std::invalid_argument);
  c.pdu_id = 1;
  c.len = 0;
  EXPECT_THROW(encode_cell(c), std::invalid_argument);
  c.len = kCellPayload + 1;
  EXPECT_THROW(encode_cell(c), std::invalid_argument);
}

TEST(Wire, HecCatchesEveryHeaderBitFlip) {
  const Cell c = make_cell(0x1234, 77, 9, kFlagBom, 44);
  const WireCell w = encode_cell(c);
  for (int byte = 0; byte < 5; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      WireCell bad = w;
      bad[static_cast<std::size_t>(byte)] ^=
          static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(decode_cell(bad).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Wire, PayloadDamagePassesHecButBreaksPduCrc) {
  // Payload and AAL bytes are not covered by the HEC (as in real ATM);
  // end-to-end integrity is the AAL CRC / checksum layer's job.
  std::vector<std::uint8_t> pdu(300, 0x5C);
  const auto cells = segment(pdu, 9, 0);
  PduAssembler asm_ok, asm_bad;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    WireCell w = encode_cell(cells[i]);
    if (i == 1) w[20] ^= 0x04;  // payload bit
    const auto back = decode_cell(w);
    ASSERT_TRUE(back.has_value());
    asm_bad.add(*back);
    asm_ok.add(cells[i]);
  }
  EXPECT_TRUE(asm_ok.finish().has_value());
  EXPECT_FALSE(asm_bad.finish().has_value()) << "CRC-32 must catch it";
}

TEST(Wire, HecHasCosetLeader) {
  // An all-zero header must not produce a zero HEC (ITU I.432 coset).
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(hec8(zeros), 0x55);
}

TEST(Wire, FullCellLenEncodesAsZero) {
  // len==44 uses the 0 encoding in the 6-bit field; a stray value > 44
  // must be rejected.
  const Cell c = make_cell(5, 5, 5, 0, kCellPayload);
  WireCell w = encode_cell(c);
  EXPECT_EQ(w[8] & 0x3F, 0);
  w[8] = static_cast<std::uint8_t>((w[8] & ~0x3F) | 45);
  EXPECT_FALSE(decode_cell(w).has_value());
}

}  // namespace
}  // namespace osiris::atm

namespace osiris {
namespace {

TEST(WireLink, ByteAccurateModeCleanLinkIsLossless) {
  NodeConfig ca = make_3000_600_config();
  ca.link.wire_ber = 1e-12;  // engages the codec path, negligible errors
  Testbed tb(std::move(ca), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::vector<std::uint8_t> want(20000);
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  std::uint64_t ok = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, want);
    ++ok;
  });
  proto::Message m = proto::Message::from_payload(tb.a.kernel_space, want);
  sim::Tick t = 0;
  for (int i = 0; i < 5; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_EQ(ok, 5u);
}

TEST(WireLink, BitErrorRateSplitsIntoHecDropsAndChecksumFailures) {
  NodeConfig ca = make_3000_600_config();
  ca.link.wire_ber = 2e-4;  // ~0.08 flips/cell
  ca.link.seed = 13;
  Testbed tb(std::move(ca), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  std::uint64_t delivered = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(10000, 0x2F));
  sim::Tick t = 0;
  for (int i = 0; i < 20; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_GT(tb.a.out.cells_corrupted(), 0u);
  EXPECT_GT(tb.a.out.cells_hec_dropped(), 0u) << "some flips hit the header";
  EXPECT_LT(delivered, 20u);
}

}  // namespace
}  // namespace osiris
