// Soak tests: long randomized runs that grind the reassembly strategies,
// the queue machinery and the end-to-end path harder than the unit suites.
// Deterministic seeds; each test stays around a second of wall time.
#include <gtest/gtest.h>

#include <map>

#include "atm/reassembly.h"
#include "atm/sar.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "sim/rng.h"

namespace osiris {
namespace {

TEST(Soak, QuadRouterThousandsOfMixedPdusUnderRandomSkew) {
  // 2000 PDUs of adversarially mixed sizes (heavy on the <4-cell cases
  // that force lane-attribution reasoning), random interleaving.
  sim::Rng rng(0xBADC0DE);
  std::vector<std::uint32_t> sizes;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t n = rng.chance(0.6)
                                ? static_cast<std::uint32_t>(1 + rng.below(170))
                                : static_cast<std::uint32_t>(1 + rng.below(20000));
    sizes.push_back(n);
    total_bytes += n;
  }

  // Stripe all PDUs into per-lane streams.
  std::array<std::vector<std::pair<atm::Cell, std::uint32_t>>, atm::kLanes> lanes;
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    std::vector<std::uint8_t> pdu(sizes[p]);
    for (std::size_t i = 0; i < pdu.size(); ++i) {
      pdu[i] = static_cast<std::uint8_t>(i * 131 + p * 17);
    }
    for (const atm::Cell& c : atm::segment(pdu, 5, static_cast<std::uint16_t>(p))) {
      lanes[c.seq % atm::kLanes].push_back({c, static_cast<std::uint32_t>(p)});
    }
  }

  // Random merge preserving per-lane order; reassemble; verify every PDU.
  atm::QuadRouter router;
  std::map<std::uint64_t, std::vector<std::uint8_t>> bytes;
  std::uint64_t completed = 0;
  std::array<std::size_t, atm::kLanes> pos{};
  std::size_t remaining = 0;
  for (const auto& l : lanes) remaining += l.size();
  std::vector<atm::Placement> places;
  std::vector<atm::Completion> dones;
  while (remaining > 0) {
    const int lane = static_cast<int>(rng.below(atm::kLanes));
    auto& l = lanes[static_cast<std::size_t>(lane)];
    auto& p = pos[static_cast<std::size_t>(lane)];
    if (p >= l.size()) continue;
    places.clear();
    dones.clear();
    router.on_cell(lane, l[p].first, places, dones);
    ++p;
    --remaining;
    for (const auto& pl : places) {
      auto& buf = bytes[pl.pdu];
      if (buf.size() < pl.offset + pl.cell->len) buf.resize(pl.offset + pl.cell->len);
      std::copy_n(pl.cell->payload.begin(), pl.cell->len, buf.begin() + pl.offset);
    }
    for (const auto& d : dones) {
      const auto it = bytes.find(d.pdu);
      ASSERT_NE(it, bytes.end());
      const auto tr = atm::decode_trailer(it->second);
      ASSERT_TRUE(tr.has_value());
      ASSERT_EQ(atm::Crc32::of({it->second.data(), tr->pdu_len}), tr->crc)
          << "pdu " << d.pdu;
      bytes.erase(it);
      ++completed;
    }
  }
  EXPECT_EQ(completed, sizes.size());
  EXPECT_EQ(router.inflight(), 0u);
  EXPECT_EQ(router.queued(), 0u);
  EXPECT_EQ(router.dropped(), 0u);
}

TEST(Soak, LongDuplexRunConservesEverything) {
  // Sustained bidirectional traffic with mixed sizes over a mildly skewed
  // link; at the end every PDU is accounted for: delivered, or dropped for
  // a counted reason.
  NodeConfig ca = make_3000_600_config();
  NodeConfig cb = make_5000_200_config();
  ca.link = link::skewed_config(8.0, 3);
  Testbed tb(std::move(ca), std::move(cb));
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  std::uint64_t a_got = 0, b_got = 0;
  sa->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++a_got; });
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++b_got; });

  sim::Rng rng(44);
  sim::Tick ta = 0, tb2 = 0;
  constexpr int kMsgs = 120;
  for (int i = 0; i < kMsgs; ++i) {
    const auto na = static_cast<std::uint32_t>(1 + rng.below(20000));
    const auto nb = static_cast<std::uint32_t>(1 + rng.below(20000));
    proto::Message ma = proto::Message::from_payload(
        tb.a.kernel_space, std::vector<std::uint8_t>(na, static_cast<std::uint8_t>(i)),
        static_cast<std::uint32_t>(rng.below(4096)));
    proto::Message mb = proto::Message::from_payload(
        tb.b.kernel_space, std::vector<std::uint8_t>(nb, static_cast<std::uint8_t>(i)),
        static_cast<std::uint32_t>(rng.below(4096)));
    ta = sa->send(ta, vci, ma);
    tb2 = sb->send(tb2, vci, mb);
  }
  tb.run();

  // The slower 5000/200 may shed load under this pressure; conservation
  // must hold exactly on both sides.
  const auto b_shed = tb.b.rxp.pdus_dropped_nobuf() + tb.b.rxp.pdus_dropped_recvfull();
  const auto a_shed = tb.a.rxp.pdus_dropped_nobuf() + tb.a.rxp.pdus_dropped_recvfull();
  EXPECT_EQ(a_got, static_cast<std::uint64_t>(kMsgs)) << "fast side loses nothing";
  EXPECT_GT(b_got, 0u);
  if (b_shed == 0) {
    EXPECT_EQ(b_got, static_cast<std::uint64_t>(kMsgs));
  }
  EXPECT_EQ(sa->checksum_failures(), 0u);
  EXPECT_EQ(sb->checksum_failures(), 0u);
  (void)a_shed;
  // No leaked reassembly state on either board.
  EXPECT_EQ(tb.a.rxp.purge_incomplete(0), 0u);
}

TEST(Soak, QueueWraparoundMillionsOfOps) {
  dpram::DualPortRam ram;
  const dpram::QueueLayout lay{0, 7};  // tiny: wraps constantly
  dpram::QueueWriter w(ram, lay, dpram::Side::kHost);
  dpram::QueueReader r(ram, lay, dpram::Side::kBoard);
  sim::Rng rng(7);
  std::uint32_t next_push = 0, next_pop = 0;
  for (int i = 0; i < 1000000; ++i) {
    if (rng.chance(0.5)) {
      if (!w.full()) w.push({next_push, next_push ^ 0x5A5A, 0, 0, 0}), ++next_push;
    } else if (const auto d = r.pop()) {
      ASSERT_EQ(d->addr, next_pop);
      ASSERT_EQ(d->len, next_pop ^ 0x5A5A);
      ++next_pop;
    }
  }
  EXPECT_GT(next_pop, 200000u);
}

}  // namespace
}  // namespace osiris
