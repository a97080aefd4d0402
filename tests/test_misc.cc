// Odds and ends: API edges not covered by the focused suites.
#include <gtest/gtest.h>

#include "atm/sar.h"
#include "host/driver.h"
#include "mem/paging.h"
#include "osiris/node.h"
#include "osiris/stats.h"
#include "proto/message.h"
#include "sim/resource.h"

namespace osiris {
namespace {

TEST(Misc, AllocRejectsBadArguments) {
  mem::PhysicalMemory pm(1 << 20);
  mem::FrameAllocator fa(1 << 20);
  mem::AddressSpace as(pm, fa, "t");
  EXPECT_THROW(as.alloc(0), std::invalid_argument);
  EXPECT_THROW(as.alloc(10, mem::kPageSize), std::invalid_argument);
}

TEST(Misc, MessagePopBytesAcrossSegments) {
  mem::PhysicalMemory pm(1 << 22);
  mem::FrameAllocator fa(1 << 22, true, 5);
  mem::AddressSpace as(pm, fa, "t");
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < 100; ++i) data[i] = static_cast<std::uint8_t>(i);
  proto::Message m = proto::Message::from_payload(as, data);
  const std::vector<std::uint8_t> h1{0xAA, 0xBB}, h2{0xCC};
  m.push_header(h1);
  m.push_header(h2);  // segments: [CC][AA BB][data]
  m.pop_bytes(2);     // removes CC and AA, splitting the second segment
  auto out = m.gather();
  ASSERT_EQ(out.size(), 101u);
  EXPECT_EQ(out[0], 0xBB);
  EXPECT_EQ(out[1], 0x00);
  EXPECT_THROW(m.pop_bytes(1000), std::out_of_range);
  EXPECT_THROW(m.slice(0, 5000), std::out_of_range);
}

TEST(Misc, RxPduViewRangeChecks) {
  mem::PhysicalMemory pm(1 << 16);
  host::RxPduView v;
  v.bufs.push_back({0, 100, 0});
  v.pdu_len = 92;
  v.wire_len = 100;
  std::vector<std::uint8_t> buf(200);
  EXPECT_THROW(v.read_raw(pm, 0, buf), std::out_of_range);
  std::vector<std::uint8_t> ok(50);
  EXPECT_NO_THROW(v.read_raw(pm, 50, ok));
}

TEST(Misc, ResourceResetStatsKeepsCalendar) {
  sim::Engine eng;
  sim::Resource r(eng, "r");
  r.reserve_at(sim::us(10), sim::us(5));
  r.reset_stats();
  EXPECT_EQ(r.busy_total(), 0u);
  EXPECT_EQ(r.reservations(), 0u);
  // The booked interval still blocks.
  EXPECT_EQ(r.reserve_at(sim::us(10), sim::us(5)), sim::us(20));
}

TEST(Misc, ResourceZeroHoldIsFree) {
  sim::Engine eng;
  sim::Resource r(eng, "r");
  EXPECT_EQ(r.reserve_at(sim::us(3), 0), sim::us(3));
  EXPECT_EQ(r.reserve_at(sim::us(3), 0), sim::us(3));  // no serialization
}

TEST(Misc, RouterStatsExposeInflight) {
  auto r = atm::make_router("seq");
  std::vector<atm::Placement> pl;
  std::vector<atm::Completion> dn;
  const auto cells = atm::segment(std::vector<std::uint8_t>(500, 1), 7, 0);
  r->on_cell(0, cells[0], pl, dn);
  EXPECT_EQ(r->inflight(), 1u);
  for (std::size_t i = 1; i < cells.size(); ++i) r->on_cell(0, cells[i], pl, dn);
  EXPECT_EQ(r->inflight(), 0u);
}

TEST(Misc, NodeRejectsMappingWithoutStack) {
  // A node without an attached stack still delivers at driver level.
  sim::Engine eng;
  Node n(eng, make_3000_600_config());
  n.out.set_sink([&](int lane, const atm::Cell& c) { n.rxp.on_cell(lane, c); });
  n.map_kernel_vci(1200);
  // No rx handler at all: the driver recycles buffers and counts the PDU.
  const mem::VirtAddr va = n.kernel_space.alloc(500);
  n.driver.send(0, 1200, n.kernel_space.scatter(va, 500));
  eng.run();
  EXPECT_EQ(n.driver.pdus_received(), 1u);
}

TEST(Misc, SummaryOfFormatStatsOnQuietNode) {
  sim::Engine eng;
  Node n(eng, make_5000_200_config());
  const obs::Snapshot s = stats(n);
  EXPECT_EQ(s.counter("tx.pdus_sent"), 0u);
  EXPECT_EQ(s.gauge("host.interrupts_per_pdu"), 0.0);
  EXPECT_EQ(s.gauge("host.dpram_accesses_per_pdu"), 0.0);
  EXPECT_FALSE(s.to_text().empty());
}

TEST(Misc, TrailerOnlyPduRoundTrip) {
  // Zero-byte user PDU: one trailer-only cell end to end.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  std::uint64_t got = 0;
  std::size_t got_len = 99;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got_len = d.size();
    ++got;
  });
  // Smallest possible driver PDU: 1 byte (empty messages have no buffers).
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>{0x7E});
  sa->send(0, vci, m);
  tb.run();
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(got_len, 1u);
}

}  // namespace
}  // namespace osiris
