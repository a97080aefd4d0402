// Data paths and fast buffers (§3.1): hundreds of connections, each bound
// to its own VCI; the 16 most recently used paths keep preallocated,
// pre-mapped fbuf pools that incoming PDUs land in directly thanks to the
// board's early demultiplexing.
//
//   $ ./fbuf_paths
#include <cstdio>

#include "fbuf/fbuf.h"
#include "osiris/paths.h"
#include "osiris/stats.h"
#include "proto/message.h"

using namespace osiris;

int main() {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  PathManager pm(tb);

  // A few hundred ordinary connections — VCIs are abundant (§3.1).
  for (int i = 0; i < 300; ++i) pm.open();
  std::printf("%zu kernel-buffered paths open (VCIs bound on both hosts)\n",
              pm.open_count());

  // A handful of hot connections get per-path fbuf pools, pre-mapped into
  // their data path's domains: driver -> protocol server -> application.
  fbuf::FbufPool pool_a(tb.a.eng, tb.a.cfg.machine, tb.a.cpu, tb.a.frames);
  fbuf::FbufPool pool_b(tb.b.eng, tb.b.cfg.machine, tb.b.cpu, tb.b.frames);
  std::vector<std::uint16_t> hot;
  for (int i = 0; i < 4; ++i) {
    hot.push_back(pm.open_fbuf(pool_a, pool_b, {0, 1, 2}));
  }
  std::printf("%d hot paths with per-path cached fbuf pools\n\n",
              static_cast<int>(hot.size()));

  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::map<std::uint16_t, std::uint64_t> per_vci;
  sb->set_sink([&](sim::Tick, std::uint16_t v, std::vector<std::uint8_t>&&) {
    ++per_vci[v];
  });

  // Traffic across the hot paths.
  std::vector<std::uint8_t> data(12 * 1024, 0x66);
  proto::Message m = proto::Message::from_payload(tb.a.kernel_space, data);
  sim::Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    for (const std::uint16_t v : hot) t = sa->send(t, v, m);
  }
  tb.run();

  for (const std::uint16_t v : hot) {
    std::printf("  vci %u: %llu messages, delivered straight into its fbuf pool\n",
                v, static_cast<unsigned long long>(per_vci[v]));
  }

  std::puts("");
  std::puts("--- receiver statistics ---");
  std::fputs(stats(tb.b).to_text().c_str(), stdout);

  std::puts("");
  std::printf("fbuf pools on B: hot paths are %s; early demux decided the\n",
              pool_b.is_path_cached(0) ? "cached (pre-mapped)" : "uncached");
  std::puts("buffer pool per VCI before a single host cycle was spent on the");
  std::puts("PDU — the property both fbufs and ADCs are built on.");
  return pool_b.is_path_cached(0) ? 0 : 1;
}
