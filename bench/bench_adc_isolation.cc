// Tenant isolation under attack (§3.2 hardening): what an adversarial ADC
// tenant costs its neighbours.
//
// Two well-behaved tenants stream fixed-size messages over their own ADCs.
// The baseline row runs them alone; the adversary row adds a tenant that
// floods forged descriptors from a higher-priority queue until the
// AdcSupervisor quarantines it. The per-tenant goodput and latency
// quantiles of the two rows should be close — the paper's protection
// argument is precisely that firmware checks plus OS policy confine a bad
// application without taxing good ones.
//
// Results go to stdout and to BENCH_adc_isolation.json.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "adc/adc.h"
#include "adc/supervisor.h"
#include "bench_json.h"
#include "fault/fault.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "sim/time.h"

namespace {

using namespace osiris;

constexpr std::uint32_t kMessages = 200;
constexpr std::size_t kBytes = 2000;

struct TenantResult {
  std::uint64_t delivered = 0;
  double goodput_mbps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct ScenarioResult {
  std::map<int, TenantResult> tenants;
  std::uint64_t attacker_violations = 0;
  bool attacker_quarantined = false;
};

ScenarioResult run_scenario(bool with_adversary) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::AdcSupervisor sup(tb.a.eng, tb.a.txp, tb.a.rxp);

  struct Tenant {
    std::unique_ptr<adc::Adc> tx, rx;
    std::vector<sim::Tick> sent_at;
    std::vector<double> latencies_us;
    std::uint64_t delivered = 0;
    sim::Tick last = 0;
  };
  std::map<int, Tenant> tenants;
  for (int pair = 1; pair <= 2; ++pair) {
    const auto vci = static_cast<std::uint16_t>(900 + pair);
    Tenant t;
    t.tx = std::make_unique<adc::Adc>(tb.a.adc_deps(), pair,
                                      std::vector<atm::Vci>{vci}, 1, sc);
    t.rx = std::make_unique<adc::Adc>(tb.b.adc_deps(), pair,
                                      std::vector<atm::Vci>{vci}, 1, sc);
    tenants.emplace(pair, std::move(t));
  }
  for (auto& [pair, t] : tenants) {
    Tenant* tp = &t;
    t.rx->set_sink([tp](sim::Tick at, std::uint16_t,
                        std::vector<std::uint8_t>&& d) {
      std::uint32_t idx = 0;
      std::memcpy(&idx, d.data(), sizeof(idx));
      if (idx < tp->sent_at.size()) {
        tp->latencies_us.push_back(sim::to_us(at - tp->sent_at[idx]));
      }
      ++tp->delivered;
      tp->last = at;
    });
    adc::AdcSupervisor::Budget b;
    b.max_violations = 8;
    sup.watch(*t.tx, b);
  }

  std::unique_ptr<adc::Adc> attacker;
  fault::FaultPlane adversary(0xBAD);
  if (with_adversary) {
    adversary.arm(fault::Point::kAdcGarbageDescriptor, {1.0, 0, ~0ull});
    attacker = std::make_unique<adc::Adc>(tb.a.adc_deps(), 3,
                                          std::vector<atm::Vci>{910},
                                          /*priority=*/3, sc);
    attacker->set_fault_plane(&adversary);
    adc::AdcSupervisor::Budget tight;
    tight.max_violations = 8;
    sup.watch(*attacker, tight);
  }
  sup.start(sim::us(200), sim::sec(1));

  std::vector<std::uint8_t> payload(kBytes, 0x77);
  std::map<int, sim::Tick> clock;
  sim::Tick atk_clock = 0;
  std::unique_ptr<proto::Message> junk;
  if (attacker) {
    junk = std::make_unique<proto::Message>(proto::Message::from_payload(
        attacker->space(), std::vector<std::uint8_t>(256, 0xEE)));
    attacker->authorize(junk->scatter());
  }
  for (std::uint32_t k = 0; k < kMessages; ++k) {
    for (auto& [pair, t] : tenants) {
      const auto vci = static_cast<std::uint16_t>(900 + pair);
      std::memcpy(payload.data(), &k, sizeof(k));
      proto::Message m = proto::Message::from_payload(t.tx->space(), payload);
      t.tx->authorize(m.scatter());
      t.sent_at.push_back(clock[pair]);
      // Messages are views; the frames live in the tenant's address space
      // until the Adc is destroyed, so dropping `m` here is safe.
      clock[pair] = t.tx->send(clock[pair], vci, m);
    }
    if (attacker) {
      // Higher-priority garbage, two chains per round: without the
      // firmware checks this queue would drain first and starve pairs 1-2.
      atk_clock = attacker->send(atk_clock, 910, *junk);
      atk_clock = attacker->send(atk_clock, 910, *junk);
    }
  }
  tb.run();

  ScenarioResult r;
  for (auto& [pair, t] : tenants) {
    TenantResult tr;
    tr.delivered = t.delivered;
    tr.goodput_mbps =
        t.last > 0 ? sim::mbps(t.delivered * kBytes, t.last) : 0.0;
    tr.p50_us = benchjson::quantile(t.latencies_us, 0.50);
    tr.p99_us = benchjson::quantile(t.latencies_us, 0.99);
    r.tenants[pair] = tr;
  }
  if (attacker) {
    r.attacker_violations = sup.violations(attacker->pair());
    r.attacker_quarantined = sup.quarantined(attacker->pair());
  }
  return r;
}

void emit(const char* name, const ScenarioResult& r, benchjson::Writer& json) {
  for (const auto& [pair, tr] : r.tenants) {
    std::printf("  %-10s | tenant %d | %4llu/%u | %8.1f | %8.1f | %8.1f\n",
                name, pair, static_cast<unsigned long long>(tr.delivered),
                kMessages, tr.goodput_mbps, tr.p50_us, tr.p99_us);
    json.open_object();
    json.field("scenario", std::string(name));
    json.field("tenant", static_cast<std::uint64_t>(pair));
    json.field("delivered", tr.delivered);
    json.field("sent", static_cast<std::uint64_t>(kMessages));
    json.field("goodput_mbps", tr.goodput_mbps);
    json.field("p50_latency_us", tr.p50_us);
    json.field("p99_latency_us", tr.p99_us);
    json.close_object();
  }
}

}  // namespace

int main() {
  std::puts("ADC tenant isolation: goodput/latency with and without an");
  std::puts("adversarial flooder (simulated time)");
  std::printf("  %u x %zu B messages per tenant; adversary floods forged\n"
              "  descriptors at higher priority until quarantined\n\n",
              kMessages, kBytes);
  std::puts("  scenario   | tenant   | delivrd  | Mbit/s   |  p50 us  |  p99 us");
  std::puts("  -----------+----------+----------+----------+----------+---------");

  const ScenarioResult base = run_scenario(/*with_adversary=*/false);
  const ScenarioResult adv = run_scenario(/*with_adversary=*/true);

  benchjson::Writer json;
  json.open_object();
  json.field("bench", std::string("adc_isolation"));
  json.field("messages", static_cast<std::uint64_t>(kMessages));
  json.field("bytes", static_cast<std::uint64_t>(kBytes));
  json.open_array("rows");
  emit("baseline", base, json);
  emit("adversary", adv, json);
  json.close_array();
  json.field("attacker_violations", adv.attacker_violations);
  json.field("attacker_quarantined", adv.attacker_quarantined);
  json.close_object();

  std::printf("\n  attacker: %llu violations, quarantined=%s\n\n",
              static_cast<unsigned long long>(adv.attacker_violations),
              adv.attacker_quarantined ? "yes" : "no");
  json.dump("adc_isolation");
  return 0;
}
