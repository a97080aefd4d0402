// Reproduces Table 1: round-trip latencies (us) between kernel test
// programs over back-to-back OSIRIS boards, for the raw ATM and UDP/IP
// configurations on both machines. IP MTU 16 KB, UDP checksumming off —
// the paper's setup.
//
// Emits BENCH_table1_latency.json: one row per machine/protocol pair plus
// the standard perf-trajectory fields (benchjson::perf_fields); building
// each testbed counts as setup, everything else as run.
#include <cstdio>

#include "bench_json.h"
#include "obs/spans.h"
#include "osiris/harness.h"
#include "osiris/node.h"

namespace {

using namespace osiris;

struct RunOut {
  double rtt_us = 0;
  std::uint64_t events = 0;  // engine events dispatched by this run
  double setup_s = 0;        // wall time spent building the testbed
};

RunOut rtt(bool alpha, bool udp, std::uint32_t bytes) {
  const benchjson::WallTimer build;
  Testbed tb(alpha ? make_3000_600_config() : make_5000_200_config(),
             alpha ? make_3000_600_config() : make_5000_200_config());
  const double setup_s = build.seconds();
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = udp ? proto::StackMode::kUdpIp : proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const double us = harness::ping_pong(tb, *sa, *sb, vci, bytes, 12).rtt_us_mean;
  return RunOut{us, tb.dispatched(), setup_s};
}

double us_of(double ticks) { return ticks / 1e6; }  // Tick = picoseconds

/// One span-instrumented ping-pong (raw ATM, 1024 B, 5000/200) feeding the
/// per-stage latency histograms; both directions merged so the
/// distribution covers every PDU of the run.
RunOut span_run(benchjson::Writer& w) {
  obs::PduSpans spans_a, spans_b;  // one per node
  NodeConfig ca = make_5000_200_config();
  NodeConfig cb = make_5000_200_config();
  ca.spans = &spans_a;
  cb.spans = &spans_b;
  const benchjson::WallTimer build;
  Testbed tb(ca, cb);
  const double setup_s = build.seconds();
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  harness::ping_pong(tb, *sa, *sb, vci, 1024, 200);

  obs::PduSpans merged;
  merged.merge_stages(spans_a);
  merged.merge_stages(spans_b);

  const sim::Log2Histogram& e2e = merged.stage(obs::Stage::kEndToEnd);
  w.open_object("pdu_latency");
  w.field("pdus", e2e.count());
  w.field("e2e_us_p50", us_of(e2e.quantile(0.50)));
  w.field("e2e_us_p90", us_of(e2e.quantile(0.90)));
  w.field("e2e_us_p99", us_of(e2e.quantile(0.99)));
  w.field("e2e_us_p999", us_of(e2e.quantile(0.999)));
  w.open_object("stage_us_p50");
  for (const obs::Stage s :
       {obs::Stage::kEnqueueToDpram, obs::Stage::kSegment, obs::Stage::kWire,
        obs::Stage::kReassemble, obs::Stage::kRxDma, obs::Stage::kDeliver}) {
    w.field(obs::stage_name(s), us_of(merged.stage(s).quantile(0.50)));
  }
  w.close_object();
  w.close_object();

  std::printf("\nPDU lifecycle (raw ATM 1024 B, %llu PDUs): e2e p50 %.1f us, "
              "p99 %.1f us, p999 %.1f us\n",
              static_cast<unsigned long long>(e2e.count()),
              us_of(e2e.quantile(0.50)), us_of(e2e.quantile(0.99)),
              us_of(e2e.quantile(0.999)));
  return RunOut{0, tb.dispatched(), setup_s};
}

}  // namespace

int main() {
  const benchjson::WallTimer wall;
  std::uint64_t events = 0;
  double setup = 0;

  std::puts("Table 1: Round-Trip Latencies (us)  [paper value in brackets]");
  std::puts("");
  std::puts("Machine        Protocol    1 B          1024 B       2048 B       4096 B");

  struct Row {
    const char* machine;
    bool alpha;
    const char* proto;
    bool udp;
    int paper[4];
  };
  const Row rows[] = {
      {"5000/200", false, "ATM   ", false, {353, 417, 486, 778}},
      {"5000/200", false, "UDP/IP", true, {598, 659, 725, 1011}},
      {"3000/600", true, "ATM   ", false, {154, 215, 283, 449}},
      {"3000/600", true, "UDP/IP", true, {316, 376, 446, 619}},
  };
  const std::uint32_t sizes[] = {1, 1024, 2048, 4096};
  static const char* const size_keys[] = {"rtt_us_1b", "rtt_us_1024b",
                                          "rtt_us_2048b", "rtt_us_4096b"};

  benchjson::Writer w;
  w.open_object();
  w.open_array("rows");
  for (const Row& r : rows) {
    std::printf("%-14s %-8s", r.machine, r.proto);
    w.open_object();
    w.field("machine", std::string(r.machine));
    w.field("proto", std::string(r.udp ? "udp_ip" : "raw_atm"));
    for (int i = 0; i < 4; ++i) {
      const RunOut out = rtt(r.alpha, r.udp, sizes[i]);
      events += out.events;
      setup += out.setup_s;
      std::printf("  %5.0f [%4d]", out.rtt_us, r.paper[i]);
      w.field(size_keys[i], out.rtt_us);
    }
    w.close_object();
    std::printf("\n");
  }
  w.close_array();

  const RunOut spans = span_run(w);
  events += spans.events;
  setup += spans.setup_s;

  benchjson::perf_fields(w, setup, wall.seconds() - setup, events);
  w.close_object();
  w.dump("table1_latency");

  std::puts("");
  std::puts("Note: fixed (small-message) latencies match the paper closely;");
  std::puts("the per-byte slope is set by the simulated per-cell pipeline");
  std::puts("bottleneck, which underestimates the paper's at 4 KB (see");
  std::puts("EXPERIMENTS.md).");
  return 0;
}
