// Harness self-tests: the synthetic fragment builder must be
// byte-compatible with what the real protocol stack emits, and the
// measurement helpers and command-line flag parsers must behave.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "atm/sar.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

TEST(Harness, SyntheticFragmentsParseThroughTheRealStack) {
  // Drive the generator with make_udp_fragments and verify the full stack
  // delivers the exact payload, for sizes spanning one to many fragments.
  for (const std::uint32_t msg : {1u, 1024u, 16 * 1024u, 40000u, 200000u}) {
    sim::Engine eng;
    Node n(eng, make_3000_600_config());
    proto::StackConfig sc;
    sc.udp_checksum = true;  // exercises the checksum in the synthetic path
    auto stack = n.make_stack(sc);
    n.map_kernel_vci(800);

    std::vector<std::uint8_t> got;
    stack->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
      got = std::move(d);
    });
    const auto frags = harness::make_udp_fragments(msg, sc.ip_mtu, true);
    n.rxp.start_generator_multi(800, frags, 1, 0);
    eng.run();

    ASSERT_EQ(got.size(), msg) << "msg size " << msg;
    for (std::uint32_t i = 0; i < msg; ++i) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>(i * 131 + 3)) << "at " << i;
    }
    EXPECT_EQ(stack->checksum_failures(), 0u);
  }
}

TEST(Harness, UdpFragmentsMatchTheStacksWirePdus) {
  // The generator's fragments are the PDUs the real stack puts on the
  // wire, byte for byte; a fresh stack's first datagram has IP id 1.
  constexpr std::uint32_t kMsg = 40000;  // 3 fragments at the default MTU
  for (const bool checksum : {false, true}) {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.udp_checksum = checksum;
    auto sa = tb.a.make_stack(sc);
    std::vector<std::vector<std::uint8_t>> wire;
    tb.b.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
      std::vector<std::uint8_t> d(pdu.pdu_len);
      pdu.read_raw(tb.b.pm, 0, d);
      wire.push_back(std::move(d));
      return at;
    });
    std::vector<std::uint8_t> payload(kMsg);
    for (std::uint32_t i = 0; i < kMsg; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131 + 3);
    }
    sa->send(0, vci, proto::Message::from_payload(tb.a.kernel_space, payload));
    tb.run();
    const auto frags = harness::make_udp_fragments(kMsg, sc.ip_mtu, checksum);
    ASSERT_EQ(frags.size(), 3u);
    EXPECT_EQ(wire, frags) << (checksum ? "with" : "without") << " checksum";
  }
}

TEST(Harness, FragmentCountMatchesMtuArithmetic) {
  const std::uint32_t mtu = 4096 + proto::kIpHeader;
  const auto frags = harness::make_udp_fragments(10000, mtu, false);
  // UDP packet = 10008 bytes; 3 fragments of <= 4096 data.
  EXPECT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].size(), 4096u + proto::kIpHeader);
  EXPECT_EQ(frags[2].size(), 10008u - 2 * 4096u + proto::kIpHeader);
}

TEST(Harness, PingPongIterationsAndStability) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const auto r = harness::ping_pong(tb, *sa, *sb, vci, 512, 30);
  EXPECT_EQ(r.iterations, 30u);
  EXPECT_GT(r.rtt_us_min, 0.0);
  EXPECT_GE(r.rtt_us_max, r.rtt_us_mean);
  EXPECT_GE(r.rtt_us_mean, r.rtt_us_min);
}

TEST(Harness, LatencyMonotonicInMessageSize) {
  auto rtt = [](std::uint32_t bytes) {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.mode = proto::StackMode::kRawAtm;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    return harness::ping_pong(tb, *sa, *sb, vci, bytes, 6).rtt_us_mean;
  };
  const double r1 = rtt(64);
  const double r2 = rtt(2048);
  const double r3 = rtt(16384);
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);
}

TEST(Harness, ThroughputScalesWithMessageSizeThenPlateaus) {
  auto tp = [](std::uint32_t bytes) {
    sim::Engine eng;
    Node n(eng, make_3000_600_config());
    proto::StackConfig sc;
    auto stack = n.make_stack(sc);
    return harness::receive_throughput(n, *stack, 801, bytes, 30, sc).mbps;
  };
  const double small = tp(2048);
  const double mid = tp(16 * 1024);
  const double big = tp(128 * 1024);
  EXPECT_LT(small, mid);
  EXPECT_NEAR(mid, big, big * 0.1) << "plateau reached by 16 KB";
}

TEST(Harness, TransmitThroughputConservesMessages) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  const auto r =
      harness::transmit_throughput(tb, tb.a, *sa, *sb, vci, 8 * 1024, 100);
  EXPECT_EQ(r.messages, 100u);
  EXPECT_GT(r.mbps, 0.0);
}

// Runs parse_uint_flag over a literal command line (argv[0] included).
std::optional<std::uint64_t> uint_flag(std::vector<std::string> args,
                                       std::uint64_t fallback = 7) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return harness::parse_uint_flag(static_cast<int>(argv.size()), argv.data(),
                                  "--seeds", fallback);
}

TEST(Harness, UintFlagAcceptsBothSpellingsAndFallsBack) {
  EXPECT_EQ(uint_flag({"prog"}), 7u);
  EXPECT_EQ(uint_flag({"prog", "--other", "3"}), 7u);
  EXPECT_EQ(uint_flag({"prog", "--seeds", "40"}), 40u);
  EXPECT_EQ(uint_flag({"prog", "--seeds=40"}), 40u);
  EXPECT_EQ(uint_flag({"prog", "--seeds=0"}), 0u);
  EXPECT_EQ(uint_flag({"prog", "--seeds", "18446744073709551615"}),
            18446744073709551615u);
}

TEST(Harness, UintFlagRejectsMalformedValues) {
  for (const char* bad : {"x", "-3", "+3", "", " 4", "4 ", "12abc", "0x10",
                          "18446744073709551616"}) {
    EXPECT_EQ(uint_flag({"prog", "--seeds", bad}), std::nullopt) << bad;
    EXPECT_EQ(uint_flag({"prog", std::string("--seeds=") + bad}), std::nullopt)
        << bad;
  }
  EXPECT_EQ(uint_flag({"prog", "--seeds"}), std::nullopt);  // value missing
}

}  // namespace
}  // namespace osiris
