// ADC tests: user-space data path, authorization, latency parity (§3.2).
#include <gtest/gtest.h>

#include "adc/adc.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 13 + s);
  return v;
}

TEST(Adc, UserToUserRoundTrip) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 1, {500}, 1, sc);
  adc::Adc cb(tb.b.adc_deps(), 1, {500}, 1, sc);

  std::vector<std::uint8_t> got;
  cb.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(3000, 1);
  proto::Message m = proto::Message::from_payload(ca.space(), data);
  ca.authorize(m.scatter());
  ca.send(0, 500, m);
  tb.run();
  EXPECT_EQ(got, data);
}

TEST(Adc, UnauthorizedTransmitBufferRaisesViolation) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 2, {501}, 1, sc);
  adc::Adc cb(tb.b.adc_deps(), 2, {501}, 1, sc);
  std::uint64_t delivered = 0;
  cb.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  bool exception_raised = false;
  ca.set_violation_handler([&](sim::Tick) { exception_raised = true; });

  proto::Message m = proto::Message::from_payload(ca.space(), pattern(500, 2));
  // Deliberately NOT authorized.
  ca.send(0, 501, m);
  tb.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_TRUE(exception_raised);
  EXPECT_EQ(ca.violations(), 1u);
}

TEST(Adc, KernelAndAdcTrafficCoexist) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const std::uint16_t kvci = tb.open_kernel_path();
  auto ks_a = tb.a.make_stack(proto::StackConfig{});
  auto ks_b = tb.b.make_stack(proto::StackConfig{});

  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 3, {502}, 2, sc);
  adc::Adc cb(tb.b.adc_deps(), 3, {502}, 2, sc);

  std::uint64_t kernel_got = 0, adc_got = 0;
  ks_b->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++kernel_got;
  });
  cb.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++adc_got;
  });

  proto::Message km =
      proto::Message::from_payload(tb.a.kernel_space, pattern(4000, 3));
  proto::Message am = proto::Message::from_payload(ca.space(), pattern(4000, 4));
  ca.authorize(am.scatter());

  sim::Tick t = 0;
  for (int i = 0; i < 5; ++i) {
    t = ks_a->send(t, kvci, km);
    t = ca.send(t, 502, am);
  }
  tb.run();
  EXPECT_EQ(kernel_got, 5u);
  EXPECT_EQ(adc_got, 5u);
}

TEST(Adc, LatencyMatchesKernelPathWithinMargin) {
  // §4: "user-to-user performance using ADCs ... within the error margins
  // of the kernel-to-kernel case".
  auto rtt_kernel = [] {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    proto::StackConfig sc;
    sc.mode = proto::StackMode::kRawAtm;
    const atm::Vci vci = tb.open_kernel_path();
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    const auto data = pattern(1024, 5);
    proto::Message ma = proto::Message::from_payload(tb.a.kernel_space, data);
    proto::Message mb = proto::Message::from_payload(tb.b.kernel_space, data);
    sim::Tick t_done = 0;
    sb->set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
      sb->send(at, v, mb);
    });
    sa->set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&&) {
      t_done = at;
    });
    sa->send(0, vci, ma);
    tb.run();
    return t_done;
  };
  auto rtt_adc = [] {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    proto::StackConfig sc;
    sc.mode = proto::StackMode::kRawAtm;
    adc::Adc ca(tb.a.adc_deps(), 1, {503}, 1, sc);
    adc::Adc cb(tb.b.adc_deps(), 1, {503}, 1, sc);
    const auto data = pattern(1024, 5);
    proto::Message ma = proto::Message::from_payload(ca.space(), data);
    proto::Message mb = proto::Message::from_payload(cb.space(), data);
    ca.authorize(ma.scatter());
    cb.authorize(mb.scatter());
    sim::Tick t_done = 0;
    cb.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
      cb.send(at, v, mb);
    });
    ca.set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&&) {
      t_done = at;
    });
    ca.send(0, 503, ma);
    tb.run();
    return t_done;
  };
  const double k = sim::to_us(rtt_kernel());
  const double a = sim::to_us(rtt_adc());
  EXPECT_NEAR(a, k, k * 0.10) << "ADC path must match kernel path closely";
}

}  // namespace
}  // namespace osiris
