// Per-VCI QoS under incast: fairness and goodput vs offered load.
//
// N tenants on node A each stream fixed-size messages over their own ADC
// to node B — the classic incast shape, with the striped link as the
// shared bottleneck. The transmit firmware arbitrates the tenants' queues
// by deficit round robin over equal weights (board/tx.cc), so as offered
// load sweeps from half capacity to 10:1 oversubscription the per-tenant
// goodputs should stay near-equal (Jain fairness index ~1) and the
// aggregate should hold at link capacity instead of collapsing.
//
// A second scenario gives four tenants 4:2:1:1 weights at 2x load and
// reports the measured goodput ratios — the DRR quantum in action.
//
// Results go to stdout and to BENCH_qos.json. CI checks the 10x row's
// Jain index (>= 0.9) and the aggregate-goodput retention vs the 0.9x
// row (>= 0.8).
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "adc/adc.h"
#include "bench_json.h"
#include "obs/spans.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "sim/time.h"

namespace {

using namespace osiris;

constexpr std::size_t kBytes = 2000;        // message payload
constexpr double kCapacityMbps = 300.0;     // ~ the paper's sustained tx rate
constexpr double kDurationMs = 20.0;        // posting window (simulated)

adc::Adc::Deps deps_of(Node& n) {
  return adc::Adc::Deps{n.eng,   n.cfg.machine, n.cpu, n.intc, n.bus, n.pm,
                        n.cache, n.frames,      n.ram, n.txp,  n.rxp};
}

struct RunResult {
  std::vector<double> goodput_mbps;  // per tenant
  std::vector<std::uint64_t> delivered;
  std::vector<double> latency_us_p50;  // per tenant, e2e PDU spans
  std::vector<double> latency_us_p99;
  double aggregate_mbps = 0.0;
  double jain = 1.0;
  std::uint64_t rate_deferrals = 0;
  std::uint64_t rx_drops = 0;
  std::uint64_t events = 0;
};

double jain_index(const std::vector<double>& x) {
  double sum = 0.0, sq = 0.0;
  for (const double v : x) {
    sum += v;
    sq += v * v;
  }
  if (sq <= 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sq);
}

/// Runs one incast: `weights.size()` tenants, aggregate offered load of
/// `multiplier` x kCapacityMbps split evenly, DRR weights as given.
/// `bytes` sizes the messages — larger PDUs push the bottleneck from the
/// host posting path onto the link, where the DRR arbitrates.
RunResult run_incast(double multiplier, const std::vector<std::uint32_t>& weights,
                     std::size_t bytes = kBytes) {
  // PDU lifecycle spans: one per node. The tenants' ADC channel drivers
  // stamp their own sends (per-channel FIFO on node A) and deliveries
  // (keyed by VCI on node B), so per-tenant latency falls out of the
  // per-VCI end-to-end families.
  obs::PduSpans spans_a, spans_b;
  NodeConfig ca = make_3000_600_config();
  NodeConfig cb = make_3000_600_config();
  ca.spans = &spans_a;
  cb.spans = &spans_b;
  Testbed tb(ca, cb);
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;

  const int n = static_cast<int>(weights.size());
  const auto horizon = static_cast<sim::Tick>(kDurationMs * 1e9);
  struct Tenant {
    std::unique_ptr<adc::Adc> tx, rx;
    std::uint64_t delivered = 0;    // everything (backlog drains after the
                                    // window; used for loss accounting)
    std::uint64_t in_window = 0;    // delivered before the horizon — the
                                    // tenant's actual service share under
                                    // contention
  };
  std::map<int, Tenant> tenants;
  for (int pair = 1; pair <= n; ++pair) {
    const auto vci = static_cast<std::uint16_t>(900 + pair);
    Tenant t;
    t.tx = std::make_unique<adc::Adc>(deps_of(tb.a), pair,
                                      std::vector<atm::Vci>{vci}, 1, sc);
    t.rx = std::make_unique<adc::Adc>(deps_of(tb.b), pair,
                                      std::vector<atm::Vci>{vci}, 1, sc);
    tb.a.txp.set_queue_weight(pair, weights[static_cast<std::size_t>(pair - 1)]);
    spans_b.enable_vci(vci);
    t.tx->driver().set_spans(&spans_a, /*tx_channel=*/pair);
    t.rx->driver().set_spans(&spans_b);
    tenants.emplace(pair, std::move(t));
  }
  for (auto& [pair, t] : tenants) {
    Tenant* tp = &t;
    t.rx->set_sink([tp, horizon](sim::Tick at, std::uint16_t,
                                 std::vector<std::uint8_t>&&) {
      ++tp->delivered;
      if (at <= horizon) ++tp->in_window;
    });
  }

  // Equal per-tenant offered load: message interval such that the sum over
  // tenants is multiplier x capacity. Posting is closed-loop — send()
  // returns the host-side post completion time, so a backlogged queue
  // throttles its poster instead of growing without bound.
  const double per_tenant_bps = multiplier * kCapacityMbps * 1e6 / n;
  const double interval_ps = static_cast<double>(bytes) * 8.0 / per_tenant_bps * 1e12;

  std::vector<std::uint8_t> payload(bytes, 0x51);
  std::map<int, sim::Tick> clock;
  for (std::uint32_t k = 0;; ++k) {
    const auto due = static_cast<sim::Tick>(static_cast<double>(k) * interval_ps);
    if (due >= horizon) break;
    for (auto& [pair, t] : tenants) {
      const auto vci = static_cast<std::uint16_t>(900 + pair);
      std::memcpy(payload.data(), &k, sizeof(k));
      proto::Message m = proto::Message::from_payload(t.tx->space(), payload);
      t.tx->authorize(m.scatter());
      clock[pair] = t.tx->send(std::max(clock[pair], due), vci, m);
    }
  }
  tb.run();

  RunResult r;
  for (auto& [pair, t] : tenants) {
    r.delivered.push_back(t.delivered);
    r.goodput_mbps.push_back(sim::mbps(t.in_window * bytes, horizon));
    r.aggregate_mbps += r.goodput_mbps.back();
    const auto vci = static_cast<std::uint16_t>(900 + pair);
    const sim::Log2Histogram* h = spans_b.vci_e2e(vci);
    // Tick = picoseconds, so quantile/1e6 is microseconds.
    r.latency_us_p50.push_back(h != nullptr ? h->quantile(0.50) / 1e6 : 0.0);
    r.latency_us_p99.push_back(h != nullptr ? h->quantile(0.99) / 1e6 : 0.0);
  }
  r.jain = jain_index(r.goodput_mbps);
  r.rate_deferrals = tb.a.txp.rate_deferrals();
  r.rx_drops = tb.b.rxp.pdus_dropped_nobuf() + tb.b.rxp.pdus_dropped_quota();
  r.events = tb.dispatched();
  return r;
}

void emit_row(const char* scenario, double multiplier, const RunResult& r,
              benchjson::Writer& json) {
  double lo = r.goodput_mbps.empty() ? 0.0 : r.goodput_mbps[0];
  double hi = lo;
  for (const double g : r.goodput_mbps) {
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  std::printf("  %-9s | %5.1fx | %7.1f | %6.4f | %7.1f | %7.1f | %8llu\n",
              scenario, multiplier, r.aggregate_mbps, r.jain, lo, hi,
              static_cast<unsigned long long>(r.rx_drops));
  json.open_object();
  json.field("scenario", std::string(scenario));
  json.field("offered_multiplier", multiplier);
  json.field("tenants", static_cast<std::uint64_t>(r.goodput_mbps.size()));
  json.field("aggregate_goodput_mbps", r.aggregate_mbps);
  json.field("jain", r.jain);
  json.open_array("tenant_goodput_mbps");
  for (std::size_t i = 0; i < r.goodput_mbps.size(); ++i) {
    json.open_object();
    json.field("mbps", r.goodput_mbps[i]);
    if (i < r.latency_us_p50.size()) {
      json.field("latency_us_p50", r.latency_us_p50[i]);
      json.field("latency_us_p99", r.latency_us_p99[i]);
    }
    json.close_object();
  }
  json.close_array();
  json.field("rate_deferrals", r.rate_deferrals);
  json.field("rx_drops", r.rx_drops);
  json.close_object();
}

}  // namespace

int main() {
  std::puts("Per-VCI QoS under incast: DRR fairness and goodput vs offered");
  std::printf("  load; 8 tenants x %zu B messages, %.0f ms window, link as\n"
              "  bottleneck (simulated time)\n\n",
              kBytes, kDurationMs);
  std::puts("  scenario  | offer  | agg Mb  | Jain   | min Mb  | max Mb  | rx drops");
  std::puts("  ----------+--------+---------+--------+---------+---------+---------");

  benchjson::WallTimer wall;
  const std::vector<std::uint32_t> equal(8, 1);
  const std::vector<double> sweep{0.5, 0.9, 2.0, 10.0};

  benchjson::Writer json;
  json.open_object();
  json.field("bench", std::string("qos"));
  json.field("bytes", static_cast<std::uint64_t>(kBytes));
  json.field("capacity_mbps_nominal", kCapacityMbps);
  json.open_array("rows");

  double baseline_agg = 0.0, incast_agg = 0.0, incast_jain = 0.0;
  std::uint64_t events = 0;
  for (const double m : sweep) {
    const RunResult r = run_incast(m, equal);
    emit_row("equal", m, r, json);
    events += r.events;
    if (m == 0.9) baseline_agg = r.aggregate_mbps;
    if (m == 10.0) {
      incast_agg = r.aggregate_mbps;
      incast_jain = r.jain;
    }
  }

  // Weighted scenario: 4:2:1:1 at 2x oversubscription. Heavier tenants
  // outrun lighter ones (capped by their own posting rate — DRR is
  // work-conserving, so a tenant that can't fill its share donates it).
  // Bigger messages keep four posters ahead of the link, so the DRR — not
  // the host posting path — decides who sends.
  const RunResult w = run_incast(2.0, {4, 2, 1, 1}, /*bytes=*/8000);
  emit_row("weighted", 2.0, w, json);
  events += w.events;

  json.close_array();
  const double retention = baseline_agg > 0 ? incast_agg / baseline_agg : 0.0;
  json.field("jain_incast", incast_jain);
  json.field("goodput_retention", retention);
  if (!w.goodput_mbps.empty() && w.goodput_mbps[3] > 0) {
    json.field("weighted_ratio_4_to_1", w.goodput_mbps[0] / w.goodput_mbps[3]);
  }
  benchjson::perf_fields(json, wall.seconds(), events);
  json.close_object();

  std::printf("\n  10x incast: Jain=%.4f (want >= 0.9), goodput retention vs"
              " 0.9x = %.2f (want >= 0.8)\n\n",
              incast_jain, retention);
  json.dump("qos");
  return 0;
}
