// Protocol stack tests: messages, fragmentation, checksums, reassembly.
#include <gtest/gtest.h>

#include "osiris/node.h"
#include "proto/message.h"
#include "proto/stack.h"

namespace osiris {
namespace {

using proto::Message;

struct Net {
  sim::Engine eng_holder;  // unused; Testbed owns its own engine
  Testbed tb;
  std::unique_ptr<proto::ProtoStack> sa, sb;
  Net(proto::StackConfig sc, NodeConfig ca = make_3000_600_config(),
      NodeConfig cb = make_3000_600_config())
      : tb(std::move(ca), std::move(cb)) {
    sa = tb.a.make_stack(sc);
    sb = tb.b.make_stack(sc);
  }
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 11 + s);
  return v;
}

TEST(Message, HeaderAndSliceAndGather) {
  mem::PhysicalMemory pm(1 << 22);
  mem::FrameAllocator fa(1 << 22, true, 3);
  mem::AddressSpace as(pm, fa, "t");
  const auto data = pattern(5000);
  Message m = Message::from_payload(as, data, 77);
  EXPECT_EQ(m.length(), 5000u);
  const std::vector<std::uint8_t> hdr{1, 2, 3, 4};
  m.push_header(hdr);
  EXPECT_EQ(m.length(), 5004u);
  auto all = m.gather();
  EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), all.begin()));
  EXPECT_TRUE(std::equal(data.begin(), data.end(), all.begin() + 4));

  Message s = m.slice(4, 100);
  EXPECT_EQ(s.gather(), std::vector<std::uint8_t>(data.begin(), data.begin() + 100));
  m.pop_bytes(4);
  EXPECT_EQ(m.gather(), data);
}

TEST(Message, ScatterCountsPhysicalBuffers) {
  // Figure 1: header + unaligned data over n pages -> n+2 physical buffers
  // (with an interleaved frame allocator).
  mem::PhysicalMemory pm(1 << 22);
  mem::FrameAllocator fa(1 << 22, true, 5);
  mem::AddressSpace as(pm, fa, "t");
  Message m = Message::from_payload(as, pattern(2 * mem::kPageSize), 100);
  m.push_header(pattern(20, 9));
  const auto sc = m.scatter();
  EXPECT_EQ(sc.size(), 4u);  // 1 header + 3 data pages
}

TEST(Stack, UdpRoundTripSmall) {
  Net net{proto::StackConfig{}};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(1);
  Message m = Message::from_payload(net.tb.a.kernel_space, data);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got, data);
}

TEST(Stack, UdpRoundTripFragmented) {
  proto::StackConfig sc;
  sc.ip_mtu = 4096 + proto::kIpHeader;  // force fragmentation
  Net net{sc};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(40000, 3);
  Message m = Message::from_payload(net.tb.a.kernel_space, data, 123);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got.size(), data.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(net.sb->delivered(), 1u);
}

TEST(Stack, ChecksumVerifiesCleanPath) {
  proto::StackConfig sc;
  sc.udp_checksum = true;
  Net net{sc};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(10000, 5);
  Message m = Message::from_payload(net.tb.a.kernel_space, data, 8);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(net.sb->checksum_failures(), 0u);
}

TEST(Stack, ChecksumCatchesWireCorruption) {
  proto::StackConfig sc;
  sc.udp_checksum = true;
  NodeConfig ca = make_3000_600_config();
  ca.link.wire_ber = 2e-4;  // every message takes several payload flips
  Net net{sc, std::move(ca)};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t delivered = 0;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  Message m = Message::from_payload(net.tb.a.kernel_space, pattern(5000, 6));
  sim::Tick t = 0;
  for (int i = 0; i < 10; ++i) t = net.sa->send(t, vci, m);
  net.tb.run();
  EXPECT_EQ(delivered, 0u);
  // The messages the framer did not cut short all fail the checksum.
  EXPECT_GT(net.sb->checksum_failures(), 0u);
  EXPECT_EQ(net.sb->stale_recoveries(), 0u) << "wire damage is not stale cache";
}

TEST(Stack, RawAtmRoundTrip) {
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  Net net{sc};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(4096, 7);
  Message m = Message::from_payload(net.tb.a.kernel_space, data);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got, data);
}

TEST(Stack, BidirectionalTraffic) {
  Net net{proto::StackConfig{}};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t at_a = 0, at_b = 0;
  net.sa->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++at_a; });
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++at_b; });
  Message ma = Message::from_payload(net.tb.a.kernel_space, pattern(2000, 1));
  Message mb = Message::from_payload(net.tb.b.kernel_space, pattern(3000, 2));
  sim::Tick ta = 0, tb2 = 0;
  for (int i = 0; i < 10; ++i) {
    ta = net.sa->send(ta, vci, ma);
    tb2 = net.sb->send(tb2, vci, mb);
  }
  net.tb.run();
  EXPECT_EQ(at_a, 10u);
  EXPECT_EQ(at_b, 10u);
}

TEST(Stack, MultipleVcisAreIndependent) {
  Net net{proto::StackConfig{}};
  const std::uint16_t v1 = net.tb.open_kernel_path();
  const std::uint16_t v2 = net.tb.open_kernel_path();
  std::map<std::uint16_t, std::uint64_t> count;
  net.sb->set_sink([&](sim::Tick, std::uint16_t v, std::vector<std::uint8_t>&&) {
    ++count[v];
  });
  Message m = Message::from_payload(net.tb.a.kernel_space, pattern(1500, 3));
  sim::Tick t = 0;
  for (int i = 0; i < 5; ++i) {
    t = net.sa->send(t, v1, m);
    t = net.sa->send(t, v2, m);
  }
  net.tb.run();
  EXPECT_EQ(count[v1], 5u);
  EXPECT_EQ(count[v2], 5u);
}

}  // namespace
}  // namespace osiris
