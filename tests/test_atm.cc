// Unit tests for cells, checksums, segmentation and the reference assembler.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "atm/cell.h"
#include "atm/checksum.h"
#include "atm/sar.h"
#include "sim/rng.h"

namespace osiris::atm {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 37 + seed);
  return v;
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const std::string s = "123456789";
  EXPECT_EQ(Crc32::of({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
            0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = pattern(1000);
  Crc32 inc;
  inc.update({data.data(), 123});
  inc.update({data.data() + 123, 456});
  inc.update({data.data() + 579, data.size() - 579});
  EXPECT_EQ(inc.value(), Crc32::of(data));
}

/// Bit-at-a-time CRC-32: the definition the table-driven kernel must match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndSplit) {
  // Every length from 0 to 300 covers each 8-byte block count with every
  // bytewise tail; splitting at every 7th offset makes the second update
  // start at every alignment of the 8-byte loop.
  sim::Rng rng(11);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> whole(data.data(), len);
    const std::uint32_t want = crc32_bitwise(whole);
    ASSERT_EQ(Crc32::of(whole), want) << "len " << len;
    for (std::size_t split = 0; split <= len; split += 7) {
      Crc32 c;
      c.update(whole.first(split));
      c.update(whole.subspan(split));
      ASSERT_EQ(c.value(), want) << "len " << len << " split " << split;
    }
  }
}

TEST(Crc32, DetectsSingleBitError) {
  auto data = pattern(64);
  const auto good = Crc32::of(data);
  data[13] ^= 0x10;
  EXPECT_NE(Crc32::of(data), good);
}

TEST(InternetChecksum, MatchesManualComputation) {
  // Two words: 0x0102, 0x0304 -> sum 0x0406 -> ~ = 0xFBF9.
  const std::vector<std::uint8_t> d{0x01, 0x02, 0x03, 0x04};
  EXPECT_EQ(InternetChecksum::of(d), 0xFBF9);
}

TEST(InternetChecksum, OddLengthAndChunkingAgree) {
  const auto data = pattern(777);
  InternetChecksum a;
  a.update({data.data(), 100});
  a.update({data.data() + 100, 1});
  a.update({data.data() + 101, data.size() - 101});
  EXPECT_EQ(a.value(), InternetChecksum::of(data));
}

TEST(InternetChecksum, LeadingZerosDoNotChangeSum) {
  // Zero bytes contribute nothing; an even number preserves word parity.
  const auto data = pattern(100);
  std::vector<std::uint8_t> padded(8, 0);
  padded.insert(padded.end(), data.begin(), data.end());
  EXPECT_EQ(InternetChecksum::of(padded), InternetChecksum::of(data));
}

/// Bytewise Internet checksum: the definition the word-at-a-time kernel
/// must match (big-endian 16-bit words, one's-complement fold).
std::uint16_t inet_bytewise(std::span<const std::uint8_t> data) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    s += i % 2 == 0 ? std::uint64_t{data[i]} << 8 : std::uint64_t{data[i]};
  }
  while ((s >> 16) != 0) s = (s & 0xFFFFu) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFFu);
}

TEST(InternetChecksum, MatchesBytewiseReferenceAtEveryLengthAndSplit) {
  // Every length from 0 to 300 covers each 8-byte block count with every
  // bytewise tail. Two-piece splits at every 5th offset start the second
  // update at both stream parities and every alignment of the 8-byte loop;
  // a one-byte middle piece exercises carry-in and carry-out in one call.
  sim::Rng rng(13);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> whole(data.data(), len);
    const std::uint16_t want = inet_bytewise(whole);
    ASSERT_EQ(InternetChecksum::of(whole), want) << "len " << len;
    for (std::size_t split = 0; split <= len; split += 5) {
      InternetChecksum two;
      two.update(whole.first(split));
      two.update(whole.subspan(split));
      ASSERT_EQ(two.value(), want) << "len " << len << " split " << split;
      if (split < len) {
        InternetChecksum three;
        three.update(whole.first(split));
        three.update(whole.subspan(split, 1));
        three.update(whole.subspan(split + 1));
        ASSERT_EQ(three.value(), want) << "len " << len << " split " << split;
      }
    }
  }
}

TEST(InternetChecksum, AllZeroAndAllOnesPinTheFoldEdges) {
  // A zero sum folds to 0x0000 (checksum 0xFFFF); a nonzero multiple of
  // 0xFFFF folds to 0xFFFF (checksum 0x0000). The word-at-a-time sum must
  // land on the same side of that edge as the bytewise one.
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::vector<std::uint8_t> zeros(len, 0x00);
    const std::vector<std::uint8_t> ones(len, 0xFF);
    EXPECT_EQ(InternetChecksum::of(zeros), 0xFFFF) << "len " << len;
    EXPECT_EQ(InternetChecksum::of(ones), inet_bytewise(ones)) << "len " << len;
    if (len >= 2 && len % 2 == 0) {
      EXPECT_EQ(InternetChecksum::of(ones), 0x0000) << "len " << len;
    }
  }
}

TEST(InternetChecksum, Rfc1071WorkedExample) {
  // RFC 1071 §3: the words 0001 f203 f4f5 f6f7 sum to 0xddf2.
  const std::vector<std::uint8_t> d{0x00, 0x01, 0xf2, 0x03,
                                    0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum::of(d), 0x220d);
  EXPECT_EQ(inet_bytewise(d), 0x220d);
}

TEST(Cell, SealAndVerify) {
  Cell c;
  c.vci = 42;
  c.seq = 7;
  c.len = 44;
  seal(c);
  EXPECT_TRUE(header_ok(c));
  c.vci ^= 0x100;
  EXPECT_FALSE(header_ok(c));
}

TEST(Trailer, EncodeDecodeRoundTrip) {
  const Trailer t{123456, 0xDEADBEEF};
  const auto bytes = encode_trailer(t);
  std::vector<std::uint8_t> wire(100, 0);
  std::copy(bytes.begin(), bytes.end(), wire.end() - 8);
  const auto back = decode_trailer(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pdu_len, t.pdu_len);
  EXPECT_EQ(back->crc, t.crc);
}

TEST(Trailer, TooShortReturnsNullopt) {
  std::vector<std::uint8_t> tiny(4);
  EXPECT_FALSE(decode_trailer(tiny).has_value());
}

TEST(Sar, CellsForBoundaries) {
  // wire = pdu + 8, cells = ceil(wire/44).
  EXPECT_EQ(cells_for(0), 1u);
  EXPECT_EQ(cells_for(36), 1u);   // 44 wire bytes exactly
  EXPECT_EQ(cells_for(37), 2u);
  EXPECT_EQ(cells_for(80), 2u);   // 88 exactly
  EXPECT_EQ(cells_for(81), 3u);
}

TEST(Sar, HeaderFlags) {
  // 6-cell PDU: BOM on 0; lane-EOM on cells 2..5 (seq+4 >= 6); LAST on 5.
  const std::uint32_t wire = 6 * kCellPayload;
  for (std::uint32_t s = 0; s < 6; ++s) {
    const Cell c = make_cell_header(1, 0, s, 6, wire);
    EXPECT_EQ(c.bom(), s == 0);
    EXPECT_EQ(c.lane_eom(), s + 4 >= 6);
    EXPECT_EQ(c.last_cell(), s == 5);
    EXPECT_EQ(c.len, kCellPayload);
  }
}

TEST(Sar, SegmentAssembleRoundTrip) {
  for (const std::size_t n : {0u, 1u, 36u, 37u, 44u, 100u, 4096u, 16384u}) {
    const auto pdu = pattern(n);
    const auto cells = segment(pdu, /*vci=*/5, /*pdu_id=*/1);
    EXPECT_EQ(cells.size(), cells_for(static_cast<std::uint32_t>(n)));
    PduAssembler asmbl;
    for (const Cell& c : cells) EXPECT_TRUE(asmbl.add(c));
    ASSERT_TRUE(asmbl.complete());
    const auto out = asmbl.finish();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, pdu);
  }
}

TEST(Sar, AssembleOutOfOrder) {
  const auto pdu = pattern(1000);
  auto cells = segment(pdu, 5, 2);
  sim::Rng rng(4);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  PduAssembler asmbl;
  for (const Cell& c : cells) EXPECT_TRUE(asmbl.add(c));
  ASSERT_TRUE(asmbl.complete());
  EXPECT_EQ(*asmbl.finish(), pdu);
}

TEST(Sar, CorruptedPayloadFailsCrc) {
  const auto pdu = pattern(500);
  auto cells = segment(pdu, 5, 3);
  cells[3].payload[10] ^= 0x40;
  PduAssembler asmbl;
  for (const Cell& c : cells) asmbl.add(c);
  ASSERT_TRUE(asmbl.complete());
  EXPECT_FALSE(asmbl.finish().has_value());
}

TEST(Sar, DuplicateIdenticalCellAccepted) {
  const auto pdu = pattern(300);
  const auto cells = segment(pdu, 5, 4);
  PduAssembler asmbl;
  for (const Cell& c : cells) asmbl.add(c);
  EXPECT_TRUE(asmbl.add(cells[1]));  // identical duplicate
  EXPECT_EQ(*asmbl.finish(), pdu);
}

TEST(Sar, IncompleteIsNotComplete) {
  const auto pdu = pattern(300);
  const auto cells = segment(pdu, 5, 5);
  PduAssembler asmbl;
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) asmbl.add(cells[i]);
  EXPECT_FALSE(asmbl.complete());
  EXPECT_FALSE(asmbl.finish().has_value());
}

TEST(Sar, TrailerSpansTwoCellsWhenPduLenNearBoundary) {
  // pdu_len = 40: wire = 48 -> 2 cells; trailer bytes 40..47 straddle the
  // cell boundary at 44.
  const auto pdu = pattern(40);
  const auto cells = segment(pdu, 9, 6);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].len, kCellPayload);
  EXPECT_EQ(cells[1].len, 4);
  PduAssembler asmbl;
  for (const Cell& c : cells) asmbl.add(c);
  EXPECT_EQ(*asmbl.finish(), pdu);
}

TEST(Sar, SegmentsAreDataBytesPlusTrailerExactly) {
  const auto pdu = pattern(200);
  const auto cells = segment(pdu, 1, 7);
  std::vector<std::uint8_t> wire;
  for (const Cell& c : cells) {
    wire.insert(wire.end(), c.payload.begin(), c.payload.begin() + c.len);
  }
  EXPECT_EQ(wire.size(), wire_len(200));
  EXPECT_TRUE(std::equal(pdu.begin(), pdu.end(), wire.begin()));
  const auto t = decode_trailer(wire);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pdu_len, 200u);
  EXPECT_EQ(t->crc, Crc32::of(pdu));
}

}  // namespace
}  // namespace osiris::atm
