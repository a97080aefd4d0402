// Second ADC suite: receive-side page authorization, multi-ADC isolation,
// UDP stacks over ADCs, and the registered-memory discipline.
#include <gtest/gtest.h>

#include "adc/adc.h"
#include "dpram/queue.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "proto/rpc.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i + s);
  return v;
}

TEST(Adc2, UnauthorizedReceiveBufferIsSkippedWithViolation) {
  // A malicious/buggy app pushes a free-buffer descriptor pointing at
  // memory it does not own; the board skips it (raising the exception)
  // and keeps using legitimate buffers.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 1, {960}, 1, sc);
  adc::Adc cb(tb.b.adc_deps(), 1, {960}, 1, sc);

  // Forge a descriptor for a frame the OS never granted to the ADC, by
  // overwriting the next-to-be-popped free descriptor's address in the
  // dual-port RAM directly (the app owns the mapping, so nothing stops it
  // from doing this — only the board's authorization check does).
  const mem::PhysAddr stolen = tb.b.frames.alloc();
  const dpram::ChannelLayout lay = dpram::channel_layout(1);
  {
    const std::uint32_t tail =
        tb.b.ram.read(dpram::Side::kHost, lay.free.tail_word());
    const std::uint32_t w = lay.free.slot_word(tail);
    tb.b.ram.write(dpram::Side::kHost, w + 0, stolen);
  }

  std::uint64_t delivered = 0;
  cb.set_sink([&](sim::Tick, atm::Vci, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  bool violation = false;
  cb.set_violation_handler([&](sim::Tick) { violation = true; });

  proto::Message m = proto::Message::from_payload(ca.space(), pattern(2000, 1));
  ca.authorize(m.scatter());
  sim::Tick t = 0;
  for (int i = 0; i < 3; ++i) t = ca.send(t, 960, m);
  tb.run();

  EXPECT_TRUE(violation) << "the forged buffer must raise an exception";
  EXPECT_GE(cb.violations(), 1u);
  EXPECT_EQ(delivered, 3u) << "legitimate traffic continues unharmed";
  // The stolen frame was never written by DMA.
  std::vector<std::uint8_t> probe(64);
  tb.b.pm.read(stolen, probe);
  EXPECT_TRUE(std::all_of(probe.begin(), probe.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(Adc2, UdpStackOverAdcWithChecksum) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.udp_checksum = true;  // full UDP/IP, replicated in the application
  adc::Adc ca(tb.a.adc_deps(), 1, {961}, 1, sc);
  adc::Adc cb(tb.b.adc_deps(), 1, {961}, 1, sc);
  const auto want = pattern(30000, 3);  // multi-fragment
  std::uint64_t ok = 0;
  cb.set_sink([&](sim::Tick, atm::Vci, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, want);
    ++ok;
  });
  proto::Message m = proto::Message::from_payload(ca.space(), want);
  ca.authorize(m.scatter());
  sim::Tick t = 0;
  for (int i = 0; i < 4; ++i) t = ca.send(t, 961, m);
  tb.run();
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(cb.stack().checksum_failures(), 0u);
  EXPECT_EQ(ca.violations() + cb.violations(), 0u)
      << "header arena pages must be pre-authorized";
}

TEST(Adc2, ThreeChannelsShareTheBoardWithoutCrosstalk) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  std::vector<std::unique_ptr<adc::Adc>> tx_chs, rx_chs;
  std::map<atm::Vci, std::vector<std::uint8_t>> got;
  for (int i = 0; i < 3; ++i) {
    const auto vci = static_cast<atm::Vci>(970 + i);
    tx_chs.push_back(
        std::make_unique<adc::Adc>(tb.a.adc_deps(), i + 1, std::vector{vci}, i, sc));
    rx_chs.push_back(
        std::make_unique<adc::Adc>(tb.b.adc_deps(), i + 1, std::vector{vci}, i, sc));
    rx_chs.back()->set_sink(
        [&got](sim::Tick, atm::Vci v, std::vector<std::uint8_t>&& d) {
          got[v] = std::move(d);
        });
  }
  sim::Tick t = 0;
  std::map<atm::Vci, std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 3; ++i) {
    const auto vci = static_cast<atm::Vci>(970 + i);
    const auto data = pattern(3000 + static_cast<std::size_t>(i) * 1111,
                              static_cast<std::uint8_t>(i));
    proto::Message m = proto::Message::from_payload(tx_chs[static_cast<std::size_t>(i)]->space(), data);
    tx_chs[static_cast<std::size_t>(i)]->authorize(m.scatter());
    t = tx_chs[static_cast<std::size_t>(i)]->send(t, vci, m);
    sent[vci] = data;
  }
  tb.run();
  EXPECT_EQ(got.size(), 3u);
  for (const auto& [vci, data] : sent) EXPECT_EQ(got[vci], data);
}

TEST(Adc2, RpcArenaMakesUserSpaceRpcViolationFree) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.udp_checksum = true;
  adc::Adc ca(tb.a.adc_deps(), 1, {980}, 1, sc);
  adc::Adc cb(tb.b.adc_deps(), 1, {980}, 1, sc);
  proto::RpcEndpoint client(tb.a.eng, ca.stack(), ca.space(), tb.a.cpu,
                            tb.a.cfg.machine);
  proto::RpcEndpoint server(tb.b.eng, cb.stack(), cb.space(), tb.b.cpu,
                            tb.b.cfg.machine);
  ca.authorize(client.arena_buffers());
  cb.authorize(server.arena_buffers());
  server.serve([](std::vector<std::uint8_t> req) { return req; });
  int done = 0;
  sim::Tick t = 0;
  for (int i = 0; i < 10; ++i) {
    t = client.call(t, 980, pattern(500, static_cast<std::uint8_t>(i)),
                    [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                      EXPECT_TRUE(r.has_value());
                      ++done;
                    });
  }
  tb.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(ca.violations() + cb.violations(), 0u);
  EXPECT_EQ(client.timeouts(), 0u);
}

TEST(Adc2, WithoutArenaAuthorizationRpcViolates) {
  // The negative control for the registered-memory discipline: skip
  // authorizing the client's frame arena and the board refuses its sends.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 1, {981}, 1, sc);
  adc::Adc cb(tb.b.adc_deps(), 1, {981}, 1, sc);
  proto::RpcEndpoint client(tb.a.eng, ca.stack(), ca.space(), tb.a.cpu,
                            tb.a.cfg.machine);
  proto::RpcEndpoint server(tb.b.eng, cb.stack(), cb.space(), tb.b.cpu,
                            tb.b.cfg.machine);
  cb.authorize(server.arena_buffers());
  server.serve([](std::vector<std::uint8_t> req) { return req; });
  bool timed_out = false;
  client.call(0, 981, pattern(100, 1),
              [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                timed_out = !r.has_value();
              },
              sim::ms(2));
  tb.run();
  EXPECT_TRUE(timed_out);
  EXPECT_GE(ca.violations(), 1u);
}

}  // namespace
}  // namespace osiris
