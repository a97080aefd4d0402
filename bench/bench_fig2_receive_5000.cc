// Reproduces Figure 2: DECstation 5000/200 receive-side UDP/IP throughput
// vs message size, with the board's fictitious-PDU generator driving the
// host in isolation. Three configurations:
//   * double-cell DMA                 (paper plateau ~379 Mbps)
//   * single-cell DMA                 (paper plateau ~340 Mbps)
//   * single-cell DMA + pessimistic (eager) cache invalidation (~250 Mbps)
//
// Emits BENCH_fig2_receive_5000.json: the per-size rows plus the standard
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

RunOut run(std::uint32_t msg_bytes, bool double_dma, bool eager) {
  NodeConfig c = make_5000_200_config();
  c.board.double_cell_dma_rx = double_dma;
  c.driver.eager_invalidate = eager;
  const benchjson::WallTimer build;
  sim::Engine eng;
  Node n(eng, c);
  const double setup_s = build.seconds();
  proto::StackConfig sc;
  auto stack = n.make_stack(sc);
  const std::uint64_t msgs = msg_bytes >= 65536 ? 24 : (msg_bytes >= 8192 ? 48 : 96);
  const double mbps =
      harness::receive_throughput(n, *stack, 700, msg_bytes, msgs, sc).mbps;
  return RunOut{mbps, eng.dispatched(), setup_s};
}

}  // namespace

int main() {
  const benchjson::WallTimer wall;
  std::uint64_t events = 0;
  double setup = 0;

  std::puts("Figure 2: DEC 5000/200 UDP/IP/OSIRIS receive-side throughput (Mbps)");
  std::puts("(board generates messages as fast as the host absorbs them; MTU 16 KB)");
  std::puts("");
  std::puts("Msg size   double-cell DMA   single-cell DMA   single-cell + cache inval");

  benchjson::Writer w;
  w.open_object();
  w.open_array("rows");
  for (std::uint32_t kb = 1; kb <= 256; kb *= 2) {
    const std::uint32_t bytes = kb * 1024;
    const RunOut dbl = run(bytes, true, false);
    const RunOut sgl = run(bytes, false, false);
    const RunOut inval = run(bytes, false, true);
    events += dbl.events + sgl.events + inval.events;
    setup += dbl.setup_s + sgl.setup_s + inval.setup_s;
    std::printf("%4u KB        %6.1f            %6.1f            %6.1f\n", kb,
                dbl.mbps, sgl.mbps, inval.mbps);
    w.open_object();
    w.field("msg_kb", static_cast<std::uint64_t>(kb));
    w.field("double_dma_mbps", dbl.mbps);
    w.field("single_dma_mbps", sgl.mbps);
    w.field("single_dma_inval_mbps", inval.mbps);
    w.close_object();
  }
  w.close_array();

  benchjson::perf_fields(w, setup, wall.seconds() - setup, events);
  w.close_object();
  w.dump("fig2_receive_5000");

  std::puts("");
  std::puts("Paper plateaus (16 KB+): double 379, single 340, invalidated 250 Mbps.");
  return 0;
}
