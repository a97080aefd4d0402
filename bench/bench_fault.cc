// Robustness ablation: what reliability costs above an unreliable adaptor.
//
// The paper's layering argument (§1) puts reliability in a protocol above
// the driver, not in the device. This bench quantifies that choice in
// simulated time: goodput and retransmission overhead of the ARQ layer as
// wire cell loss sweeps from 0 to 5% (graceful degradation, not a cliff).
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "osiris/node.h"
#include "proto/arq.h"
#include "sim/time.h"

namespace {

using namespace osiris;

constexpr std::uint32_t kMessages = 1000;
constexpr std::size_t kBytes = 200;
constexpr sim::Duration kGap = sim::us(50);

void arq_loss_row(double loss, benchjson::Writer& json) {
  NodeConfig ca = make_3000_600_config();
  ca.board.reassembly = "seq";  // loss-tolerant reassembly (see §2.6 tests)
  ca.link.cell_loss_p = loss;
  ca.link.seed = 7;
  NodeConfig cb = make_3000_600_config();
  cb.board.reassembly = "seq";
  Testbed tb(ca, cb);
  // The receiver's watchdog heartbeat also drives reassembly GC; without
  // it, partial PDUs from lost EOM cells pin 16 KB receive buffers until
  // the pool runs dry and the link collapses (the cliff this table would
  // otherwise show at 2%).
  tb.b.start_watchdog(sim::ms(1), sim::ms(5), /*until=*/sim::sec(1));
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);

  proto::ArqConfig ac;
  ac.window = 16;
  ac.rto = sim::ms(1);
  ac.max_rto = sim::ms(10);
  ac.max_retries = 30;
  proto::ArqEndpoint arq_a(tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu,
                           tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu,
                           tb.b.cfg.machine, ac);
  arq_a.bind(vci);
  arq_b.bind(vci);

  std::uint64_t delivered = 0;
  sim::Tick last = 0;
  std::vector<double> latencies_us;  // per-message send-to-deliver time
  arq_b.set_sink([&](sim::Tick at, std::uint16_t,
                     std::vector<std::uint8_t>&& d) {
    // The first four payload bytes carry the send index; the send time is
    // exactly index * kGap, so latency needs no side table.
    std::uint32_t idx = 0;
    std::memcpy(&idx, d.data(), sizeof(idx));
    const sim::Tick sent = static_cast<sim::Tick>(idx) * kGap;
    latencies_us.push_back(sim::to_us(at - sent));
    ++delivered;
    last = at;
  });

  std::vector<std::uint8_t> payload(kBytes, 0x5A);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    tb.a.eng.schedule_at(static_cast<sim::Tick>(i) * kGap, [&, i] {
      std::memcpy(payload.data(), &i, sizeof(i));
      arq_a.send(tb.a.eng.now(), vci, payload);
    });
  }
  tb.run();

  const double goodput =
      last > 0 ? sim::mbps(delivered * kBytes, last) : 0.0;
  const double p50 = benchjson::quantile(latencies_us, 0.50);
  const double p99 = benchjson::quantile(latencies_us, 0.99);
  std::printf("  %4.1f%% | %5llu/%u | %6llu | %9.1f | %7.1f | %7.1f | %s\n",
              loss * 100.0, static_cast<unsigned long long>(delivered),
              kMessages, static_cast<unsigned long long>(arq_a.retransmissions()),
              goodput, p50, p99, arq_a.dead(vci) ? "DEAD" : "alive");

  json.open_object();
  json.field("loss", loss);
  json.field("delivered", delivered);
  json.field("sent", static_cast<std::uint64_t>(kMessages));
  json.field("retransmissions", arq_a.retransmissions());
  json.field("goodput_mbps", goodput);
  json.field("p50_latency_us", p50);
  json.field("p99_latency_us", p99);
  json.field("dead", arq_a.dead(vci));
  json.close_object();
}

void arq_loss_table() {
  std::puts("ARQ goodput vs wire cell loss (simulated time)");
  std::printf("  1000 x %zu B messages, one per %.0f us; window 16, "
              "rto 1 ms, 30 retries\n\n",
              kBytes, sim::to_us(kGap));
  std::puts("   loss | delivered |    rtx | Mbit/s    |  p50 us |  p99 us | vci");
  std::puts("  ------+-----------+--------+-----------+---------+---------+------");
  benchjson::Writer json;
  json.open_object();
  json.field("bench", std::string("fault"));
  json.field("messages", static_cast<std::uint64_t>(kMessages));
  json.field("bytes", static_cast<std::uint64_t>(kBytes));
  json.field("gap_us", sim::to_us(kGap));
  json.open_array("rows");
  for (const double loss : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    arq_loss_row(loss, json);
  }
  json.close_array();
  json.close_object();
  std::puts("");
  json.dump("fault");
}

}  // namespace

int main() {
  arq_loss_table();
  return 0;
}
