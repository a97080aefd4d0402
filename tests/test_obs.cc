// Observability subsystem: Log2Histogram edges, the metrics snapshot, PDU
// lifecycle spans end to end (including under ARQ retransmission), Chrome
// trace export, the cross-counter audit and the node counter schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "osiris/audit.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "osiris/stats.h"
#include "proto/arq.h"
#include "proto/message.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace osiris {
namespace {

// ------------------------------------------------------------ histogram

TEST(Log2Histogram, EmptyIsAllZeros) {
  sim::Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Log2Histogram, SingleSampleEveryQuantileIsTheSample) {
  sim::Log2Histogram h;
  h.record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234u);
  EXPECT_EQ(h.max(), 1234u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1234.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1234.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 1234.0);
}

TEST(Log2Histogram, QuantilesAreClampedToObservedRange) {
  sim::Log2Histogram h;
  for (std::uint64_t v = 100; v <= 200; ++v) h.record(v);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double est = h.quantile(q);
    EXPECT_GE(est, 100.0) << "q=" << q;
    EXPECT_LE(est, 200.0) << "q=" << q;
  }
  // A log2 estimate should still land in the right ballpark.
  EXPECT_NEAR(h.quantile(0.5), 150.0, 64.0);
}

TEST(Log2Histogram, OverflowBucketHoldsHugeValues) {
  sim::Log2Histogram h;
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  h.record(0);  // bit_width(0) == 0: the zero bucket
  h.record(huge);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), huge);
  // The top bucket's upper edge is the observed max, not 2^64.
  EXPECT_LE(h.quantile(1.0), static_cast<double>(huge));
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST(Log2Histogram, MergeMatchesUnionOfSamples) {
  sim::Log2Histogram a, b, u;
  for (std::uint64_t v = 1; v <= 64; ++v) {
    (v % 2 == 0 ? a : b).record(v * 17);
    u.record(v * 17);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), u.count());
  EXPECT_EQ(a.sum(), u.sum());
  EXPECT_EQ(a.min(), u.min());
  EXPECT_EQ(a.max(), u.max());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), u.quantile(0.5));
}

// ---------------------------------------------------------------- trace

TEST(Trace, ZeroCapacityIsClampedToOne) {
  sim::Trace t(0);  // regression: used to divide by ring size 0
  t.record(10, "x", "a");
  t.record(20, "x", "b");
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].event, "b");
  EXPECT_EQ(t.recorded(), 2u);
  EXPECT_EQ(t.dropped_events(), 1u);
}

// ------------------------------------------------------------- snapshot

TEST(Registry, CountersGaugesAndHistogramsSnapshot) {
  sim::Log2Histogram lat;
  lat.record(100);
  lat.record(300);
  obs::Snapshot s;
  s.counters.push_back({"cache.misses", 7});
  s.counters.push_back({"cache.hits", 42});
  s.gauges.push_back({"load", 0.75});
  s.hists.push_back(obs::summarize("latency", "ns", lat));
  s.sort_by_name();

  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "cache.hits");
  EXPECT_EQ(s.counters[0].value, 42u);
  EXPECT_EQ(s.counters[1].name, "cache.misses");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 0.75);
  ASSERT_EQ(s.hists.size(), 1u);
  EXPECT_EQ(s.hists[0].count, 2u);
  EXPECT_EQ(s.hists[0].unit, "ns");
  EXPECT_EQ(s.hists[0].min, 100u);
  EXPECT_EQ(s.hists[0].max, 300u);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"cache.hits\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.to_text().find("cache.hits"), std::string::npos);

  // Lookups by name; an unknown name throws instead of reading as zero.
  EXPECT_EQ(s.counter("cache.hits"), 42u);
  EXPECT_DOUBLE_EQ(s.gauge("load"), 0.75);
  EXPECT_THROW((void)s.counter("cache.hit"), std::out_of_range);
  EXPECT_THROW((void)s.gauge("cache.hits"), std::out_of_range);
}

// ----------------------------------------------------------------- spans

TEST(PduSpans, PingPongStampsEveryStage) {
  obs::PduSpans spans_a, spans_b;
  NodeConfig ca = make_3000_600_config();
  NodeConfig cb = make_3000_600_config();
  ca.spans = &spans_a;
  cb.spans = &spans_b;
  Testbed tb(ca, cb);
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const auto lat = harness::ping_pong(tb, *sa, *sb, vci, 1024, 20);
  ASSERT_EQ(lat.iterations, 20u);

  obs::PduSpans merged;
  merged.merge_stages(spans_a);
  merged.merge_stages(spans_b);
  // 20 round trips = 20 PDUs a->b plus 20 b->a (the first send included).
  const sim::Log2Histogram& e2e = merged.stage(obs::Stage::kEndToEnd);
  EXPECT_EQ(e2e.count(), 40u);
  for (const obs::Stage st :
       {obs::Stage::kEnqueueToDpram, obs::Stage::kSegment, obs::Stage::kWire,
        obs::Stage::kReassemble, obs::Stage::kRxDma, obs::Stage::kDeliver}) {
    EXPECT_GT(merged.stage(st).count(), 0u) << obs::stage_name(st);
  }
  // Stages nest inside the end-to-end span, so their medians must not
  // exceed its max.
  EXPECT_LE(merged.stage(obs::Stage::kWire).quantile(0.5),
            static_cast<double>(e2e.max()));
  // Node b's own spans saw the a->b half.
  EXPECT_EQ(spans_b.stage(obs::Stage::kEndToEnd).count(), 20u);
  // e2e is bounded by the measured round trip.
  EXPECT_LT(e2e.quantile(0.999) / 1e6, lat.rtt_us_max);
  // The span ledger kept the completed spans for export.
  EXPECT_EQ(spans_b.spans_recorded(), 20u);
  EXPECT_EQ(spans_b.completed_spans().size(), 20u);
}

TEST(PduSpans, ArqRetransmissionsKeepLedgerConsistent) {
  // 1% cell loss forces ARQ retransmits: the same logical payload crosses
  // more than once, tags wrap, and some PDUs abort (AAL CRC fails on a
  // PDU missing a cell). The ledger must absorb all of it — every
  // delivered PDU gets an e2e sample, aborted ones contribute nothing.
  obs::PduSpans spans_a, spans_b;
  NodeConfig ca = make_3000_600_config();
  ca.board.reassembly = "seq";
  ca.link.cell_loss_p = 0.01;
  ca.link.seed = 7;
  ca.spans = &spans_a;
  NodeConfig cb = make_3000_600_config();
  cb.board.reassembly = "seq";
  cb.spans = &spans_b;
  Testbed tb(ca, cb);
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});

  proto::ArqConfig ac;
  ac.window = 8;
  ac.rto = sim::ms(2);
  ac.max_retries = 20;
  proto::ArqEndpoint arq_a(tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu,
                           tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu,
                           tb.b.cfg.machine, ac);
  arq_a.bind(vci);
  arq_b.bind(vci);

  constexpr std::uint32_t kMessages = 400;
  std::uint32_t delivered = 0;
  arq_b.set_sink(
      [&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++delivered; });
  std::vector<std::uint8_t> payload(200, 0x5A);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    tb.a.eng.schedule_at(static_cast<sim::Tick>(i) * sim::us(150),
                         [&tb, &arq_a, &payload, vci] {
                           arq_a.send(tb.a.eng.now(), vci, payload);
                         });
  }
  tb.run();
  ASSERT_EQ(delivered, kMessages);
  EXPECT_GT(arq_a.retransmissions(), 0u);

  // Every PDU the b driver delivered (data + ARQ acks toward a) carries a
  // span; retransmitted copies are distinct wire PDUs, so counts can
  // exceed kMessages but never the driver's own delivery count.
  const sim::Log2Histogram& e2e_b = spans_b.stage(obs::Stage::kEndToEnd);
  EXPECT_GE(e2e_b.count(), static_cast<std::uint64_t>(kMessages));
  EXPECT_LE(e2e_b.count(), tb.b.driver.pdus_received());
  const sim::Log2Histogram& e2e_a = spans_a.stage(obs::Stage::kEndToEnd);
  EXPECT_GT(e2e_a.count(), 0u);  // the ack stream back to a
  EXPECT_LE(e2e_a.count(), tb.a.driver.pdus_received());
  // Loss means some tx stamps never completed; the ledger stays bounded
  // (7-bit tag space per VCI) instead of growing with the loss count.
  EXPECT_EQ(spans_b.stage(obs::Stage::kDeliver).count(), e2e_b.count());
}

// ---------------------------------------------------------------- export

TEST(ChromeTrace, ExportsInstantsAndSpans) {
  sim::Trace trace(64);
  trace.record(sim::us(1), "drv", "irq", 3, 0);

  obs::PduSpans spans;
  spans.rx_pushed(42, 1, /*origin=*/sim::us(10), /*pushed=*/sim::us(14));
  spans.rx_delivered(42, 1, /*at=*/sim::us(15));

  std::ostringstream os;
  obs::write_chrome_trace(os, {{"a", &trace, &spans}, {"b", nullptr, nullptr}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"drv.irq\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("pdu vci=42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("a/pdu"), std::string::npos);
  // Balanced JSON (crude but catches missed commas/brackets).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ----------------------------------------------------------------- audit

TEST(Audit, CleanRunBalances) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  harness::ping_pong(tb, *sa, *sb, vci, 2048, 10);
  const std::vector<std::string> violations = obs::audit(tb);
  for (const std::string& v : violations) ADD_FAILURE() << v;
}

TEST(Audit, BitErrorsBalance) {
  // A checksummed stream under bit errors: some messages arrive, some fail
  // the checksum, some lose a cell at the framer. Every damaged cell is
  // dropped there or delivered, so the wire books still balance.
  NodeConfig ca = make_3000_600_config();
  ca.link.wire_ber = 2e-5;
  Testbed tb(ca, make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(6000, 0x3C));
  sim::Tick t = 0;
  for (int i = 0; i < 40; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_GT(tb.a.out.cells_hec_dropped(), 0u);
  EXPECT_GT(sb->checksum_failures(), 0u);
  EXPECT_GT(sb->delivered(), 0u);
  const std::vector<std::string> violations = obs::audit(tb);
  for (const std::string& v : violations) ADD_FAILURE() << v;
}

// ----------------------------------------------------------------- stats

TEST(Stats, EveryNodeCounterIsExactAndNamedOnce) {
  fault::FaultPlane fa(1), fb(2);
  NodeConfig ca = make_3000_600_config();
  NodeConfig cb = make_3000_600_config();
  ca.faults = &fa;
  cb.faults = &fb;
  Testbed tb(ca, cb);
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  harness::ping_pong(tb, *sa, *sb, vci, 1024, 5);

  const std::string prefix[2] = {"a.", "b."};
  const obs::Snapshot snap[2] = {stats(tb.a, prefix[0]), stats(tb.b, prefix[1])};

  // Unprefixed names per node. A name read twice would collapse in the
  // set, so each set must be as large as its section.
  std::set<std::string> counters[2], gauges[2];
  for (int i = 0; i < 2; ++i) {
    for (const auto& c : snap[i].counters) {
      ASSERT_TRUE(c.name.starts_with(prefix[i])) << c.name;
      counters[i].insert(c.name.substr(2));
    }
    for (const auto& g : snap[i].gauges) {
      ASSERT_TRUE(g.name.starts_with(prefix[i])) << g.name;
      gauges[i].insert(g.name.substr(2));
    }
    EXPECT_EQ(counters[i].size(), snap[i].counters.size()) << prefix[i];
    EXPECT_EQ(gauges[i].size(), snap[i].gauges.size()) << prefix[i];
  }

  // Both nodes expose the same schema, and no name is both kinds.
  EXPECT_FALSE(counters[0].empty());
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(gauges[0], gauges[1]);
  for (const std::string& g : gauges[0]) EXPECT_FALSE(counters[0].contains(g)) << g;
  // The ratios are the only gauges; every node counter is an exact counter,
  // including the fault plane's points.
  EXPECT_EQ(gauges[0], (std::set<std::string>{
                           "host.bus_utilization", "host.cpu_utilization",
                           "host.dpram_accesses_per_pdu",
                           "host.interrupts_per_pdu", "rx.combine_fraction"}));
  EXPECT_GT(snap[0].counter("a.tx.pdus_sent"), 0u);
  EXPECT_GT(snap[1].counter("b.host.pdus_received"), 0u);
  EXPECT_TRUE(counters[0].contains(std::string("fault.point.") +
                                   fault::point_name(fault::Point::kDmaError) +
                                   ".fired"));

  // Cross-checks over the same names: each node's firmware built exactly
  // the cells its link carried.
  for (int i = 0; i < 2; ++i) {
    const std::string& node = prefix[i];
    EXPECT_GT(snap[i].counter(node + "tx.cells_sent"), 0u) << node;
    EXPECT_EQ(snap[i].counter(node + "link.cells_sent"),
              snap[i].counter(node + "tx.cells_sent"))
        << node;
  }

  // Counters stay exact past 2^53, where a double would round to ...992.
  obs::Snapshot big;
  big.counters.push_back({"big", (std::uint64_t{1} << 53) + 1});
  EXPECT_NE(big.to_json().find("\"big\": 9007199254740993"), std::string::npos);
}

}  // namespace
}  // namespace osiris
