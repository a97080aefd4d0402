// perfbench's own tests: the percentile rule, the paper-error arithmetic,
// span self time, and a tiny smoke of every workload through the same
// correctness gate the benchmark applies.
#include <gtest/gtest.h>

#include "ledger.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3}, 1.0), 3.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(99), 0.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(PaperErr, MeanAbsoluteRelativeErrorInPercent) {
  EXPECT_DOUBLE_EQ(paper_err_pct({}), 0.0);
  EXPECT_DOUBLE_EQ(paper_err_pct({{110, 100}}), 10.0);
  EXPECT_DOUBLE_EQ(paper_err_pct({{90, 100}, {330, 300}}), 10.0);
  // Table 1 at 4 KB as reproduced in EXPERIMENTS.md: 624/896/355/521 us
  // against the paper's 778/1011/449/619.
  const double expect = 100.0 *
                        ((778.0 - 624) / 778 + (1011.0 - 896) / 1011 +
                         (449.0 - 355) / 449 + (619.0 - 521) / 619) /
                        4;
  EXPECT_NEAR(paper_err_pct({{624, 778}, {896, 1011}, {355, 449}, {521, 619}}),
              expect, 1e-9);
  EXPECT_THROW(paper_err_pct({{1, 0}}), std::invalid_argument);
}

TEST(Fingerprint, IgnoresEngineBookkeeping) {
  const std::map<std::string, double> a{
      {"board.rx.cells", 5},  {"sim.elapsed_ps", 1e9},   {"sim.events", 10},
      {"sim.boxed_events", 0}, {"sim.far_scheduled", 2}, {"sim.cancelled", 3}};
  std::map<std::string, double> b = a;
  b["sim.events"] = 11;
  b["sim.boxed_events"] = 4;
  b["sim.far_scheduled"] = 0;
  b["sim.cancelled"] = 9;
  Fingerprint fa, fb;
  add_outcomes(fa, a);
  add_outcomes(fb, b);
  EXPECT_EQ(fa.value(), fb.value());
  b["board.rx.cells"] = 6;
  Fingerprint fc;
  add_outcomes(fc, b);
  EXPECT_NE(fa.value(), fc.value());
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  const int item = log.add(Span{"item", 0, 100, -1, 0});
  const int run = log.add(Span{"run", 10, 90, item, 0});
  log.add(Span{"sink", 20, 30, run, 0});
  log.add(Span{"sink", 40, 55, run, 0});
  log.add(Span{"path_setup", 0, 10, item, 0});
  const auto self = log.self_ns_by_name();
  EXPECT_DOUBLE_EQ(self.at("item"), 10);  // 100 - 80 (run) - 10 (setup)
  EXPECT_DOUBLE_EQ(self.at("run"), 55);   // 80 - 10 - 15
  EXPECT_DOUBLE_EQ(self.at("sink"), 25);
  EXPECT_DOUBLE_EQ(self.at("path_setup"), 10);
}

TEST(SpanLog, ChildClippedToParent) {
  SpanLog log;
  const int p = log.add(Span{"run", 0, 10, -1, 0});
  log.add(Span{"sink", 5, 20, p, 0});
  EXPECT_DOUBLE_EQ(log.self_ns_by_name().at("run"), 5);
}

TEST(SpanLog, OpenCloseNestsLiveSpans) {
  SpanLog log;
  {
    const ScopedSpan outer(&log, "item", 3);
    const ScopedSpan inner(&log, "run", 3);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[0].run, 3);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

TEST(Workloads, NamesRoundTrip) {
  for (const char* n : {"rx_stream", "tx_stream", "pingpong", "chaos"}) {
    const auto w = parse_workload(n);
    ASSERT_TRUE(w.has_value()) << n;
    EXPECT_STREQ(workload_name(*w), n);
  }
  EXPECT_FALSE(parse_workload("nope").has_value());
}

class TinySmoke : public ::testing::TestWithParam<Workload> {};

TEST_P(TinySmoke, PassesGateAndRepeatsFingerprint) {
  const BlockResult a = run_block(GetParam(), 3, /*tiny=*/true);
  const BlockResult b = run_block(GetParam(), 3, /*tiny=*/true);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_GT(a.item_ms.size(), 0u);
  EXPECT_GT(a.pdus, 0u);
  EXPECT_GT(a.run_s, 0.0);
  EXPECT_GT(a.setup_s, 0.0);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.sim, b.sim);
  // The engine counters stay reported as per-layer metrics.
  for (const char* k : {"sim.events", "sim.boxed_events"}) {
    EXPECT_EQ(a.sim.count(k), 1u) << k;
  }
  // Host-speed probes run between items and leave the simulation alone.
  EXPECT_EQ(a.probes, 0u);
  const BlockResult p = run_block(GetParam(), 3, /*tiny=*/true, nullptr, /*probe=*/true);
  EXPECT_EQ(p.probes, p.item_ms.size() + 1);
  EXPECT_GT(p.probe_s, 0.0);
  EXPECT_EQ(p.fingerprint, a.fingerprint);
}

TEST_P(TinySmoke, TracingDoesNotPerturbTheSimulation) {
  SpanLog log;
  osiris::obs::PduSpans pdu;
  osiris::sim::Log2Histogram steps;
  std::vector<double> send_ns;
  Tracing tr{&log, &pdu, &steps, &send_ns, 0};
  const BlockResult plain = run_block(GetParam(), 3, /*tiny=*/true);
  const BlockResult traced = run_block(GetParam(), 3, /*tiny=*/true, &tr);
  EXPECT_EQ(traced.failed, 0u);
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_FALSE(log.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(All, TinySmoke,
                         ::testing::Values(Workload::kRxStream, Workload::kTxStream,
                                           Workload::kPingPong, Workload::kChaos),
                         [](const auto& info) { return std::string(workload_name(info.param)); });

}  // namespace
}  // namespace perfbench
