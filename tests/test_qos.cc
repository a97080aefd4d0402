// Per-VCI QoS and overload management (DESIGN.md §10):
//  * deficit-round-robin weights actually apportion the link;
//  * board-side token buckets cap a tenant without wedging its queue
//    (the firmware re-arms itself at the refill time);
//  * a dry bucket is work-conserving — neighbours keep the link busy;
//  * per-VCI buffer quotas drop the hot VCI's PDUs, reclaim (never leak)
//    the buffers they already held, and leave neighbours untouched;
//  * the kRxFreeLow backpressure interrupt reaches the channel driver;
//  * the overload soak: incast + injected faults (queue wedges, buffer
//    exhaustion, tenant bursts) with rate limits and quotas must end with
//    every tenant served, the run drained, and zero leaked frames.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "adc/adc.h"
#include "adc/supervisor.h"
#include "fault/fault.h"
#include "osiris/audit.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 13 + s);
  return v;
}

/// One tenant: an ADC pair (tx on node a, rx on node b) on its own VCI.
struct Tenant {
  std::unique_ptr<adc::Adc> tx, rx;
  std::vector<sim::Tick> deliveries;

  Tenant(Testbed& tb, int pair, atm::Vci vci, int priority,
         const proto::StackConfig& sc) {
    tx = std::make_unique<adc::Adc>(tb.a.adc_deps(), pair,
                                    std::vector<atm::Vci>{vci}, priority, sc);
    rx = std::make_unique<adc::Adc>(tb.b.adc_deps(), pair,
                                    std::vector<atm::Vci>{vci}, priority, sc);
    rx->set_sink([this](sim::Tick at, std::uint16_t,
                        std::vector<std::uint8_t>&&) {
      deliveries.push_back(at);
    });
  }
};

proto::StackConfig raw_atm() {
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  return sc;
}

TEST(Qos, DrrWeightsApportionTheLink) {
  // Two equal-priority tenants, weights 3:1, both backlogged from t=0.
  // Deficit round robin must serve the heavy tenant ~3x as often while
  // both stay backlogged — not strictly first (that's what priority is
  // for), and not 1:1 (that's what the old FIFO scan did).
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const auto sc = raw_atm();
  Tenant heavy(tb, 1, 901, 1, sc);
  Tenant light(tb, 2, 902, 1, sc);
  tb.a.txp.set_queue_weight(1, 3);
  tb.a.txp.set_queue_weight(2, 1);

  std::vector<int> order;  // 1 = heavy, 2 = light
  heavy.rx->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    order.push_back(1);
  });
  light.rx->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    order.push_back(2);
  });

  const auto data = pattern(8000, 1);
  proto::Message mh = proto::Message::from_payload(heavy.tx->space(), data);
  proto::Message ml = proto::Message::from_payload(light.tx->space(), data);
  heavy.tx->authorize(mh.scatter());
  light.tx->authorize(ml.scatter());
  sim::Tick th = 0, tl = 0;
  for (int i = 0; i < 12; ++i) {
    th = heavy.tx->send(th, 901, mh);
    tl = light.tx->send(tl, 902, ml);
  }
  tb.run();

  ASSERT_EQ(order.size(), 24u);
  int heavy_in_first_8 = 0;
  for (int i = 0; i < 8; ++i) {
    if (order[static_cast<std::size_t>(i)] == 1) ++heavy_in_first_8;
  }
  EXPECT_GE(heavy_in_first_8, 5) << "weight 3 tenant should dominate ~3:1";
  EXPECT_LE(heavy_in_first_8, 7) << "weight 1 tenant must not starve";
}

TEST(Qos, RateLimitCapsATenantWithoutWedging) {
  // A lone rate-limited tenant: the bucket runs dry mid-burst and NOTHING
  // else kicks the firmware — the scheduler must re-arm itself at the
  // refill time, pace the queue at the configured rate, and drain fully.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const auto sc = raw_atm();
  Tenant t(tb, 1, 903, 1, sc);
  // 5 MB/s with a 4 KB burst: each 8000 B PDU (~8.9 KB on the wire)
  // overdraws the bucket, so every send after the first waits on refill.
  tb.a.txp.set_rate_limit(1, 5e6, 4096);
  ASSERT_TRUE(tb.a.txp.rate_limited(1));

  const auto data = pattern(8000, 2);
  proto::Message m = proto::Message::from_payload(t.tx->space(), data);
  t.tx->authorize(m.scatter());
  sim::Tick tick = 0;
  for (int i = 0; i < 6; ++i) tick = t.tx->send(tick, 903, m);
  tb.run();

  EXPECT_EQ(t.deliveries.size(), 6u) << "a dry bucket must never wedge";
  EXPECT_GT(tb.a.txp.rate_deferrals(), 0u);
  // ~53 KB of wire bytes at 5 MB/s is ~10 ms; without the limit this
  // drains in well under a millisecond.
  EXPECT_GT(tb.now(), sim::ms(8));
}

TEST(Qos, DryBucketIsWorkConserving) {
  // Tenant L is throttled hard; tenant N is not. N's PDUs must flow at
  // link speed while L's bucket refills — an ineligible queue donates the
  // link instead of blocking the scheduler pass.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const auto sc = raw_atm();
  Tenant limited(tb, 1, 904, 1, sc);
  Tenant normal(tb, 2, 905, 1, sc);
  tb.a.txp.set_rate_limit(1, 1e6, 2048);  // 1 MB/s: ~9 ms per 8000 B PDU

  const auto data = pattern(8000, 3);
  proto::Message m1 = proto::Message::from_payload(limited.tx->space(), data);
  proto::Message m2 = proto::Message::from_payload(normal.tx->space(), data);
  limited.tx->authorize(m1.scatter());
  normal.tx->authorize(m2.scatter());
  sim::Tick t1 = 0, t2 = 0;
  for (int i = 0; i < 3; ++i) t1 = limited.tx->send(t1, 904, m1);
  for (int i = 0; i < 6; ++i) t2 = normal.tx->send(t2, 905, m2);
  tb.run();

  ASSERT_EQ(normal.deliveries.size(), 6u);
  ASSERT_EQ(limited.deliveries.size(), 3u);
  // All of N's traffic lands before L's throttled second PDU: the link
  // never idled waiting on L's bucket.
  EXPECT_LT(normal.deliveries.back(), limited.deliveries[1]);
}

TEST(Qos, VciQuotaDropsHotVciAndReclaimsItsBuffers) {
  // The hot VCI gets a 1-buffer quota; its multi-buffer PDUs hit the cap
  // mid-reassembly and are dropped — but the buffer each one already held
  // must come back as an aborted descriptor (recycled by the driver), not
  // leak. A neighbour VCI on its own channel is untouched.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const auto sc = raw_atm();
  Tenant hot(tb, 1, 906, 1, sc);
  Tenant cool(tb, 2, 907, 1, sc);
  tb.b.rxp.set_vci_quota(906, 1);  // 8000 B needs 2-3 page buffers

  const auto data = pattern(8000, 4);
  proto::Message mh = proto::Message::from_payload(hot.tx->space(), data);
  proto::Message mc = proto::Message::from_payload(cool.tx->space(), data);
  hot.tx->authorize(mh.scatter());
  cool.tx->authorize(mc.scatter());
  sim::Tick t1 = 0, t2 = 0;
  // 20 hot PDUs want ~60 buffers; the channel pool only has 32. If drops
  // leaked their held buffer the pool would be gone by PDU ~30 and the
  // later sends (and the quota accounting) would wedge.
  for (int i = 0; i < 20; ++i) t1 = hot.tx->send(t1, 906, mh);
  for (int i = 0; i < 8; ++i) t2 = cool.tx->send(t2, 907, mc);
  tb.run();

  EXPECT_EQ(hot.deliveries.size(), 0u);
  EXPECT_EQ(cool.deliveries.size(), 8u) << "neighbour must be untouched";
  EXPECT_GE(tb.b.rxp.pdus_dropped_quota(), 20u);
  EXPECT_EQ(tb.b.rxp.vci_buffers_held(906), 0u) << "quota accounting leaked";
  EXPECT_EQ(tb.b.rxp.vci_buffers_held(907), 0u);
}

TEST(Qos, BackpressureIrqReachesTheChannelDriver) {
  // Injected free-queue exhaustion: pops fail despite supply, the free
  // source goes dry mid-reassembly, and the firmware must raise the
  // kRxFreeLow edge toward the host instead of dropping silently. The
  // channel driver fields it and forces an immediate drain/recycle pass.
  fault::FaultPlane fb(0xB0B);
  fb.arm(fault::Point::kRxBufferExhausted, {.probability = 1.0, .budget = 8});
  NodeConfig cb = make_3000_600_config();
  cb.faults = &fb;
  Testbed tb(make_3000_600_config(), std::move(cb));
  const auto sc = raw_atm();
  Tenant t(tb, 1, 908, 1, sc);

  const auto data = pattern(8000, 5);
  proto::Message m = proto::Message::from_payload(t.tx->space(), data);
  t.tx->authorize(m.scatter());
  sim::Tick tick = 0;
  for (int i = 0; i < 10; ++i) tick = t.tx->send(tick, 908, m);
  tb.run();

  EXPECT_GT(tb.b.rxp.backpressure_irqs(), 0u);
  EXPECT_GT(t.rx->driver().backpressure_events(), 0u);
  // The budget bounds the fault: once it stops firing, traffic flows.
  EXPECT_GT(t.deliveries.size(), 0u);
  EXPECT_EQ(fb.fired(fault::Point::kRxBufferExhausted), 8u);
}

TEST(Qos, OverloadSoakNoStarvationNoLeaks) {
  // The acceptance soak: 4-tenant incast with rate limits, quotas, the
  // drop-incomplete-first policy, AND the chaos plane — transmit queues
  // wedged at random, free-queue pops failing, one tenant bursting.
  // Required outcome: every tenant delivers (no starvation), the run
  // drains (no deadlock, every schedule bounded), and teardown returns
  // every frame (no leaks, even for PDUs dropped mid-reassembly).
  fault::FaultPlane fa(0xA11CE);
  fa.arm(fault::Point::kTxQueueWedge, {.probability = 0.02});
  fault::FaultPlane fb(0xB0B2);
  fb.arm(fault::Point::kRxBufferExhausted, {.probability = 0.05, .budget = 200});
  fault::FaultPlane ft(0x7E4A47);
  ft.arm(fault::Point::kTenantBurst, {.probability = 0.1, .budget = 40});

  NodeConfig ca = make_3000_600_config();
  ca.faults = &fa;
  NodeConfig cb = make_3000_600_config();
  cb.faults = &fb;
  cb.board.rx_drop_policy = board::RxDropPolicy::kDropIncompleteFirst;
  Testbed tb(std::move(ca), std::move(cb));
  const auto sc = raw_atm();

  const std::size_t base_free_a = tb.a.frames.free_frames();
  const std::size_t base_free_b = tb.b.frames.free_frames();

  {
    std::map<int, std::unique_ptr<Tenant>> tenants;
    for (int pair = 1; pair <= 4; ++pair) {
      const auto vci = static_cast<std::uint16_t>(920 + pair);
      tenants.emplace(pair, std::make_unique<Tenant>(tb, pair, vci, 1, sc));
      tb.b.rxp.set_vci_quota(vci, 8);
    }
    // Tenant 1 is the burster (its application, not the hardware, is the
    // fault domain) and gets a board-side rate limit that contains it.
    tenants[1]->tx->set_fault_plane(&ft);
    tb.a.txp.set_rate_limit(1, 20e6, 16 * 1024);
    tb.a.txp.set_rate_limit(2, 20e6, 16 * 1024);

    const auto data = pattern(4000, 6);
    std::map<int, sim::Tick> clock;
    for (int k = 0; k < 50; ++k) {
      for (auto& [pair, t] : tenants) {
        const auto vci = static_cast<std::uint16_t>(920 + pair);
        proto::Message m = proto::Message::from_payload(t->tx->space(), data);
        t->tx->authorize(m.scatter());
        // ~5 Mbps offered per tenant plus whatever the burster adds.
        const auto due = static_cast<sim::Tick>(k) * sim::us(200);
        clock[pair] = t->tx->send(std::max(clock[pair], due), vci, m);
      }
    }
    tb.run();  // must drain: every fault budget and rate timer is bounded

    for (auto& [pair, t] : tenants) {
      EXPECT_GT(t->deliveries.size(), 0u) << "tenant " << pair << " starved";
    }
    // Dropped reassemblies returned their buffers: nothing is still held.
    for (int pair = 1; pair <= 4; ++pair) {
      const auto vci = static_cast<std::uint16_t>(920 + pair);
      EXPECT_EQ(tb.b.rxp.vci_buffers_held(vci), 0u) << "vci " << vci;
    }
    // The chaos actually bit.
    EXPECT_GT(fa.fired(fault::Point::kTxQueueWedge), 0u);
    EXPECT_GT(fb.fired(fault::Point::kRxBufferExhausted), 0u);
    EXPECT_GT(ft.fired(fault::Point::kTenantBurst), 0u);
    EXPECT_EQ(tb.a.txp.wedge_skips(), fa.fired(fault::Point::kTxQueueWedge));

    for (auto& [pair, t] : tenants) {
      t->tx->close();
      t->rx->close();
      EXPECT_EQ(t->tx->driver().wiring().wired_frames(), 0u);
      EXPECT_EQ(t->rx->driver().wiring().wired_frames(), 0u);
    }
    tb.run();  // drain teardown
  }
  // Zero leaked frames, on both the overloaded receiver and the sender.
  EXPECT_EQ(tb.a.frames.free_frames(), base_free_a);
  EXPECT_EQ(tb.b.frames.free_frames(), base_free_b);

  // Cross-counter conservation still holds after quota drops, evictions
  // and wedges: the books must balance even when the data path degrades.
  const std::vector<std::string> violations = osiris::obs::audit(tb);
  for (const std::string& v : violations) ADD_FAILURE() << "audit: " << v;
}

TEST(Qos, QuarantineReclaimsSchedulerAndLimiterState) {
  // A quarantined tenant's DRR deficit, weight, and token bucket must be
  // released with its queue — a later tenant reusing the pair index starts
  // fresh instead of inheriting a drained bucket or stale credit.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const auto sc = raw_atm();
  adc::AdcSupervisor sup(tb.a.eng, tb.a.txp, tb.a.rxp);

  fault::FaultPlane hostile(0xEB11);
  hostile.arm(fault::Point::kAdcGarbageDescriptor, {.probability = 1.0});
  auto bad = std::make_unique<adc::Adc>(tb.a.adc_deps(), 3,
                                        std::vector<atm::Vci>{930}, 1, sc);
  bad->set_fault_plane(&hostile);
  sup.watch(*bad);
  tb.a.txp.set_queue_weight(3, 7);
  tb.a.txp.set_rate_limit(3, 1e6, 2048);
  ASSERT_TRUE(tb.a.txp.rate_limited(3));

  proto::Message junk = proto::Message::from_payload(
      bad->space(), std::vector<std::uint8_t>(256, 0xEE));
  bad->authorize(junk.scatter());
  sim::Tick t = 0;
  for (int i = 0; i < 12; ++i) t = bad->send(t, 930, junk);
  tb.run();

  ASSERT_TRUE(sup.quarantined(3));
  EXPECT_FALSE(tb.a.txp.queue_attached(3));
  EXPECT_FALSE(tb.a.txp.rate_limited(3)) << "quarantine leaked the bucket";
}

}  // namespace
}  // namespace osiris
