// Reproduces Figure 4: transmit-side UDP/IP throughput. Transmit DMA is
// single-cell only (the paper's double-cell transmit change was still
// underway), so the TURBOchannel per-transaction overhead caps throughput
// near 325 Mbps on the 3000/600; the 5000/200 is lower because its host
// memory traffic shares the bus with DMA.
//
// Emits BENCH_fig4_transmit.json: the per-size rows plus the standard
// perf-trajectory fields (benchjson::perf_fields); building each testbed
// counts as setup, everything else as run.
#include <cstdio>

#include "bench_json.h"
#include "osiris/harness.h"
#include "osiris/node.h"

namespace {

using namespace osiris;

struct RunOut {
  double mbps = 0;
  std::uint64_t events = 0;  // engine events dispatched by this run
  double setup_s = 0;        // wall time spent building the testbed
};

RunOut run(std::uint32_t msg_bytes, bool alpha_sender, bool cksum) {
  const benchjson::WallTimer build;
  Testbed tb(alpha_sender ? make_3000_600_config() : make_5000_200_config(),
             make_3000_600_config());
  const double setup_s = build.seconds();
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = cksum;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const std::uint64_t msgs = msg_bytes >= 65536 ? 20 : (msg_bytes >= 8192 ? 40 : 80);
  const double mbps =
      harness::transmit_throughput(tb, tb.a, *sa, *sb, vci, msg_bytes, msgs).mbps;
  return RunOut{mbps, tb.dispatched(), setup_s};
}

}  // namespace

int main() {
  const benchjson::WallTimer wall;
  std::uint64_t events = 0;
  double setup = 0;

  std::puts("Figure 4: UDP/IP/OSIRIS transmit-side throughput (Mbps)");
  std::puts("(single-cell transmit DMA; receiver: DEC 3000/600)");
  std::puts("");
  std::puts("Msg size   3000/600   3000/600+UDP-CS   5000/200");

  benchjson::Writer w;
  w.open_object();
  w.open_array("rows");
  for (std::uint32_t kb = 1; kb <= 256; kb *= 2) {
    const std::uint32_t bytes = kb * 1024;
    const RunOut alpha = run(bytes, true, false);
    const RunOut alpha_cs = run(bytes, true, true);
    const RunOut dec = run(bytes, false, false);
    events += alpha.events + alpha_cs.events + dec.events;
    setup += alpha.setup_s + alpha_cs.setup_s + dec.setup_s;
    std::printf("%4u KB     %6.1f       %6.1f         %6.1f\n", kb, alpha.mbps,
                alpha_cs.mbps, dec.mbps);
    w.open_object();
    w.field("msg_kb", static_cast<std::uint64_t>(kb));
    w.field("alpha_mbps", alpha.mbps);
    w.field("alpha_cksum_mbps", alpha_cs.mbps);
    w.field("dec5000_mbps", dec.mbps);
    w.close_object();
  }
  w.close_array();

  benchjson::perf_fields(w, setup, wall.seconds() - setup, events);
  w.close_object();
  w.dump("fig4_transmit");

  std::puts("");
  std::puts("Paper: maximal transmit throughput ~325 Mbps, limited entirely by");
  std::puts("TURBOchannel contention from single-cell DMA transfers.");
  return 0;
}
