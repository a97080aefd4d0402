// ADC lifecycle and protection-scoping tests (§3.2 hardening):
//  * 64-bit authorization math (the addr+len-1 wrap regression);
//  * violation interrupts scoped to the offending channel, and dropped
//    once the channel is closed;
//  * open -> traffic -> close -> reopen on the same pair index with every
//    frame, wired page, and dpram registration back to baseline.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "adc/adc.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + s);
  return v;
}

TEST(AdcLifecycle, AllowedRejectsWrappingRanges) {
  // Regression: `page_of(addr + len - 1)` wrapped at the top of the 32-bit
  // physical space, making the page loop vacuous — any [addr, addr+len)
  // crossing 2^32 was ALLOWED. The check must do 64-bit end math.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 1, {700}, 1, sc);

  // A wrapping range is never allowed, no matter what pages are granted.
  EXPECT_FALSE(ca.allowed(0xFFFFFFF0u, 0x20u));
  EXPECT_FALSE(ca.allowed(0xFFFFFFFFu, 2u));
  EXPECT_FALSE(ca.allowed(0x10u, 0xFFFFFFF0u));

  // The topmost page itself is grantable: authorize() must not wrap
  // either when computing the buffer's last page.
  ca.authorize({mem::PhysBuffer{0xFFFFF000u, 0x1000u}});
  EXPECT_TRUE(ca.allowed(0xFFFFF000u, 0x1000u));
  EXPECT_TRUE(ca.allowed(0xFFFFFFFFu, 1u));
  EXPECT_FALSE(ca.allowed(0xFFFFF000u, 0x1001u));
}

TEST(AdcLifecycle, ViolationHandlerScopedToOffendingChannel) {
  // Channel A's violation must invoke A's handler only — never B's, even
  // though both handlers hang off the same kAccessViolation interrupt.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 1, {701}, 1, sc);
  adc::Adc cx(tb.a.adc_deps(), 2, {702}, 1, sc);  // bystander, same node
  adc::Adc cb(tb.b.adc_deps(), 1, {701}, 1, sc);

  int a_exceptions = 0, x_exceptions = 0;
  ca.set_violation_handler([&](sim::Tick) { ++a_exceptions; });
  cx.set_violation_handler([&](sim::Tick) { ++x_exceptions; });

  proto::Message m = proto::Message::from_payload(ca.space(), pattern(600, 1));
  // Deliberately NOT authorized: the board rejects A's descriptors.
  ca.send(0, 701, m);
  tb.run();

  EXPECT_GE(a_exceptions, 1);
  EXPECT_EQ(x_exceptions, 0) << "bystander channel saw A's violation";
  EXPECT_GE(ca.violations(), 1u);
  EXPECT_EQ(cx.violations(), 0u);
}

TEST(AdcLifecycle, ViolationAfterCloseIsDropped) {
  // An access-violation interrupt already raised — but not yet serviced —
  // when the channel closes must NOT run the (dead) channel's handler:
  // the interrupt controller resolves handlers at service time.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc ca(tb.a.adc_deps(), 1, {703}, 1, sc);

  int exceptions = 0;
  ca.set_violation_handler([&](sim::Tick) { ++exceptions; });

  tb.a.intc.raise(board::Irq::kAccessViolation, ca.pair());
  ca.close();  // in-flight delivery: raised before, serviced after
  tb.run();
  EXPECT_EQ(exceptions, 0) << "violation delivered to a closed channel";
  EXPECT_EQ(ca.violations(), 0u);

  // And close() is idempotent.
  ca.close();
  EXPECT_TRUE(ca.closed());
}

TEST(AdcLifecycle, OpenTrafficCloseReopenRestoresBaseline) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;

  const std::size_t base_free_a = tb.a.frames.free_frames();
  const std::size_t base_free_b = tb.b.frames.free_frames();
  const auto data = pattern(5000, 9);

  auto run_once = [&](int round) {
    auto ca = std::make_unique<adc::Adc>(tb.a.adc_deps(), 4,
                                         std::vector<atm::Vci>{704}, 1, sc);
    auto cb = std::make_unique<adc::Adc>(tb.b.adc_deps(), 4,
                                         std::vector<atm::Vci>{704}, 1, sc);
    std::uint64_t got = 0;
    cb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
      EXPECT_EQ(d, data) << "round " << round;
      ++got;
    });
    proto::Message m = proto::Message::from_payload(ca->space(), data);
    ca->authorize(m.scatter());
    sim::Tick t = tb.now();  // round 2 starts after round 1's clock
    for (int i = 0; i < 4; ++i) t = ca->send(t, 704, m);
    tb.run();
    EXPECT_EQ(got, 4u) << "round " << round;

    ca->close();
    cb->close();
    // Teardown must leave no wired pages behind on either side.
    EXPECT_EQ(ca->driver().wiring().wired_frames(), 0u) << "round " << round;
    EXPECT_EQ(cb->driver().wiring().wired_frames(), 0u) << "round " << round;
    tb.run();  // drain anything teardown scheduled
  };

  run_once(1);
  // After destruction (close + address-space teardown), every frame the
  // channel pair consumed — driver pool, header arena, message payload —
  // is back in the allocators.
  EXPECT_EQ(tb.a.frames.free_frames(), base_free_a);
  EXPECT_EQ(tb.b.frames.free_frames(), base_free_b);

  // Reopening the SAME pair index must work identically: queue slots,
  // VCI mappings and interrupt handlers from round 1 must be fully gone.
  run_once(2);
  EXPECT_EQ(tb.a.frames.free_frames(), base_free_a);
  EXPECT_EQ(tb.b.frames.free_frames(), base_free_b);
}

TEST(AdcLifecycle, CloseReleasesSchedulerAndRateLimiterState) {
  // A channel carrying a DRR weight and a token-bucket rate limit closes;
  // a fresh tenant reusing the pair index must start with clean scheduler
  // state — no inherited weight, no drained (or banked) bucket. The
  // regression this guards: remove_queue() once detached the queue but
  // left the limiter installed, so the reused pair ran throttled forever.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  const auto data = pattern(8000, 5);

  {
    adc::Adc ca(tb.a.adc_deps(), 7, {720}, 1, sc);
    adc::Adc cb(tb.b.adc_deps(), 7, {720}, 1, sc);
    tb.a.txp.set_queue_weight(7, 9);
    tb.a.txp.set_rate_limit(7, /*bytes_per_sec=*/1e6, /*burst_bytes=*/2048);
    ASSERT_TRUE(tb.a.txp.rate_limited(7));
    std::uint64_t got = 0;
    cb.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
      ++got;
    });
    proto::Message m = proto::Message::from_payload(ca.space(), data);
    ca.authorize(m.scatter());
    sim::Tick t = tb.now();
    for (int i = 0; i < 2; ++i) t = ca.send(t, 720, m);
    tb.run();
    EXPECT_EQ(got, 2u);
    EXPECT_GT(tb.a.txp.rate_deferrals(), 0u) << "the 1 MB/s cap never bit";
  }  // close() via destructors

  EXPECT_FALSE(tb.a.txp.rate_limited(7)) << "remove_queue leaked the bucket";

  // The reused pair runs at full speed: 4 x 8000 B in far less time than
  // the old 1 MB/s cap (~36 ms) would have allowed.
  const std::uint64_t deferrals_before = tb.a.txp.rate_deferrals();
  adc::Adc ca2(tb.a.adc_deps(), 7, {720}, 1, sc);
  adc::Adc cb2(tb.b.adc_deps(), 7, {720}, 1, sc);
  std::uint64_t got2 = 0;
  cb2.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++got2;
  });
  proto::Message m2 = proto::Message::from_payload(ca2.space(), data);
  ca2.authorize(m2.scatter());
  const sim::Tick start = tb.now();
  sim::Tick t2 = start;
  for (int i = 0; i < 4; ++i) t2 = ca2.send(t2, 720, m2);
  tb.run();
  EXPECT_EQ(got2, 4u);
  EXPECT_EQ(tb.a.txp.rate_deferrals(), deferrals_before);
  EXPECT_LT(tb.now() - start, sim::ms(5)) << "reused pair still throttled";
}

TEST(AdcLifecycle, CloseMidTrafficLeavesOtherChannelsUnharmed) {
  // The harsher variant: close the receiving channel while PDUs are still
  // in flight toward it. Completions already scheduled for the dead
  // channel must be dropped (accounted), and a neighbour channel's
  // traffic must still arrive byte-exact.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  auto dying_tx = std::make_unique<adc::Adc>(
      tb.a.adc_deps(), 5, std::vector<atm::Vci>{710}, 1, sc);
  auto dying_rx = std::make_unique<adc::Adc>(
      tb.b.adc_deps(), 5, std::vector<atm::Vci>{710}, 1, sc);
  adc::Adc good_tx(tb.a.adc_deps(), 6, {711}, 1, sc);
  adc::Adc good_rx(tb.b.adc_deps(), 6, {711}, 1, sc);

  const auto want = pattern(4000, 3);
  std::uint64_t good_got = 0;
  good_rx.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, want);
    ++good_got;
  });
  std::uint64_t dead_got = 0;
  dying_rx->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++dead_got;
  });

  proto::Message md = proto::Message::from_payload(dying_tx->space(), want);
  dying_tx->authorize(md.scatter());
  proto::Message mg = proto::Message::from_payload(good_tx.space(), want);
  good_tx.authorize(mg.scatter());

  sim::Tick t = 0;
  for (int i = 0; i < 6; ++i) {
    t = dying_tx->send(t, 710, md);
    t = good_tx.send(t, 711, mg);
  }
  // Kill the receiver while the burst is mid-flight.
  tb.b.eng.schedule(sim::us(100), [&] {
    dying_rx->close();
    dying_rx.reset();
  });
  tb.run();

  EXPECT_EQ(good_got, 6u) << "neighbour channel was perturbed by teardown";
  EXPECT_LT(dead_got, 6u) << "close mid-flight should have cut delivery";
}

}  // namespace
}  // namespace osiris
