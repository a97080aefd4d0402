// Reproduces Figure 3: DEC 3000/600 receive-side throughput. The crossbar
// memory system lets DMA and CPU proceed concurrently and the cache is
// DMA-coherent, so double-cell DMA approaches the full 516 Mbps link
// payload bandwidth; UDP checksumming costs ~15% (paper: 438 Mbps).
//
// Emits BENCH_fig3_receive_3000.json: the per-size rows plus the standard
// perf-trajectory fields (benchjson::perf_fields); building each node
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
  double setup_s = 0;        // wall time spent building the node
};

RunOut run(std::uint32_t msg_bytes, bool double_dma, bool cksum) {
  NodeConfig c = make_3000_600_config();
  c.board.double_cell_dma_rx = double_dma;
  const benchjson::WallTimer build;
  sim::Engine eng;
  Node n(eng, c);
  const double setup_s = build.seconds();
  proto::StackConfig sc;
  sc.udp_checksum = cksum;
  auto stack = n.make_stack(sc);
  const std::uint64_t msgs = msg_bytes >= 65536 ? 24 : (msg_bytes >= 8192 ? 48 : 96);
  const double mbps =
      harness::receive_throughput(n, *stack, 701, msg_bytes, msgs, sc).mbps;
  return RunOut{mbps, eng.dispatched(), setup_s};
}

}  // namespace

int main() {
  const benchjson::WallTimer wall;
  std::uint64_t events = 0;
  double setup = 0;

  std::puts("Figure 3: DEC 3000/600 UDP/IP/OSIRIS receive-side throughput (Mbps)");
  std::puts("");
  std::puts("Msg size   double DMA   double+UDP-CS   single DMA   single+UDP-CS");

  benchjson::Writer w;
  w.open_object();
  w.open_array("rows");
  for (std::uint32_t kb = 1; kb <= 256; kb *= 2) {
    const std::uint32_t bytes = kb * 1024;
    const RunOut d = run(bytes, true, false);
    const RunOut dc = run(bytes, true, true);
    const RunOut s = run(bytes, false, false);
    const RunOut scs = run(bytes, false, true);
    events += d.events + dc.events + s.events + scs.events;
    setup += d.setup_s + dc.setup_s + s.setup_s + scs.setup_s;
    std::printf("%4u KB      %6.1f        %6.1f        %6.1f        %6.1f\n", kb,
                d.mbps, dc.mbps, s.mbps, scs.mbps);
    w.open_object();
    w.field("msg_kb", static_cast<std::uint64_t>(kb));
    w.field("double_dma_mbps", d.mbps);
    w.field("double_dma_cksum_mbps", dc.mbps);
    w.field("single_dma_mbps", s.mbps);
    w.field("single_dma_cksum_mbps", scs.mbps);
    w.close_object();
  }
  w.close_array();

  benchjson::perf_fields(w, setup, wall.seconds() - setup, events);
  w.close_object();
  w.dump("fig3_receive_3000");

  std::puts("");
  std::puts("Paper: double-cell approaches the 516 Mbps link payload bandwidth");
  std::puts("for 16 KB+ messages; with checksumming it drops to ~438 Mbps (the");
  std::puts("data is read and checksummed at ~90% of link speed).");
  return 0;
}
