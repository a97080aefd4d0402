#include "experiments.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "adc/adc.h"
#include "adc/supervisor.h"
#include "bench_json.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "dpram/lockq.h"
#include "dpram/queue.h"
#include "fault/fault.h"
#include "fbuf/fbuf.h"
#include "obs/spans.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "proto/arq.h"
#include "proto/message.h"

namespace osiris::experiments {

void Experiment::add(std::string series, double x, double measured,
                     double paper) {
  rows.push_back(Row{std::move(series), x, measured, paper});
}

const Row& Experiment::at(const std::string& series, double x) const {
  for (const Row& r : rows) {
    if (r.series == series && r.x == x) return r;
  }
  throw std::out_of_range(name + ": no row " + series + " at x=" +
                          std::to_string(x));
}

namespace {

// Runs `body` as experiment `name`; node and testbed builds count as
// setup, the rest of the wall time as run.
Experiment timed(std::string name, std::string title, std::string x_label,
                 const std::function<void(Experiment&)>& body) {
  Experiment e;
  e.name = std::move(name);
  e.title = std::move(title);
  e.x_label = std::move(x_label);
  const benchjson::WallTimer wall;
  body(e);
  e.run_seconds = wall.seconds() - e.setup_seconds;
  return e;
}

NodeConfig machine(bool alpha) {
  return alpha ? make_3000_600_config() : make_5000_200_config();
}

std::string machine_name(bool alpha) { return alpha ? "3000_600" : "5000_200"; }

// Adds one drained run to `e`: its engine events and simulated end time.
void count_run(Experiment& e, const sim::Engine& eng) {
  e.engine_events += eng.dispatched();
  e.sim_seconds += static_cast<double>(eng.now()) / 1e12;
}

std::unique_ptr<Testbed> testbed(Experiment& e, NodeConfig a, NodeConfig b) {
  const benchjson::WallTimer build;
  auto tb = std::make_unique<Testbed>(std::move(a), std::move(b));
  e.setup_seconds += build.seconds();
  return tb;
}

std::vector<std::uint8_t> pattern(std::uint32_t n, std::uint8_t step) {
  std::vector<std::uint8_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * step);
  return v;
}

// --- The three measurement shapes ---------------------------------------

struct Received {
  harness::ThroughputResult r;
  double delivered = 0;  // share of the offered messages the host received
};

// Generator receive on one node (Figures 2 and 3): the board's
// fictitious-PDU generator offers `msgs` messages of `bytes` on `vci` as
// fast as the host absorbs them. `after` sees the node once the run ends.
Received receive(Experiment& e, const NodeConfig& c,
                 const proto::StackConfig& sc, atm::Vci vci,
                 std::uint32_t bytes, std::uint64_t msgs,
                 const std::function<void(Node&, proto::ProtoStack&)>& after =
                     {}) {
  const benchjson::WallTimer build;
  sim::Engine eng;
  Node n(eng, c);
  e.setup_seconds += build.seconds();
  auto stack = n.make_stack(sc);
  const auto r = harness::receive_throughput(n, *stack, vci, bytes, msgs, sc);
  if (after) after(n, *stack);
  count_run(e, eng);
  return {r, static_cast<double>(r.messages) / static_cast<double>(msgs)};
}

// A receive point's goodput row and its `.delivered` row.
void add_received(Experiment& e, const std::string& series, double x,
                  const Received& p, double paper = kNoPaper) {
  e.add(series, x, p.r.mbps, paper);
  e.add(series + ".delivered", x, p.delivered);
}

// Transmit across a testbed (Figure 4): `sender` sends `msgs` messages of
// `bytes` back to back to a 3000/600 over a fresh kernel path; goodput is
// taken at the receiver. `after` sees the testbed once the run ends.
harness::ThroughputResult transmit(
    Experiment& e, NodeConfig sender, const proto::StackConfig& sc,
    std::uint32_t bytes, std::uint64_t msgs,
    const std::function<void(Testbed&)>& after = {}) {
  auto tb = testbed(e, std::move(sender), make_3000_600_config());
  const atm::Vci vci = tb->open_kernel_path();
  auto sa = tb->a.make_stack(sc);
  auto sb = tb->b.make_stack(sc);
  const auto r =
      harness::transmit_throughput(*tb, tb->a, *sa, *sb, vci, bytes, msgs);
  if (after) after(*tb);
  count_run(e, tb->eng);
  return r;
}

// Ping-pong RTT (Table 1): kernel test programs on nodes `a` and `b`
// exchange `iterations` round trips of `bytes`.
harness::LatencyResult rtt(Experiment& e, NodeConfig a, NodeConfig b,
                           proto::StackMode mode, std::uint32_t bytes,
                           int iterations) {
  auto tb = testbed(e, std::move(a), std::move(b));
  const atm::Vci vci = tb->open_kernel_path();
  proto::StackConfig sc;
  sc.mode = mode;
  auto sa = tb->a.make_stack(sc);
  auto sb = tb->b.make_stack(sc);
  const auto r = harness::ping_pong(*tb, *sa, *sb, vci, bytes, iterations);
  count_run(e, tb->eng);
  return r;
}

// A stream of `msgs` copies of `data`, `offset` bytes into its first
// page, posted back to back at once from node a to node b over a fresh
// kernel path. Goodput counts the messages after the first, from the
// first delivery to the last.
struct Streamed {
  double delivered = 0;  // share of the messages the receiver got
  double intact = 0;     // share it got byte for byte as sent
  double mbps = 0;
};

Streamed stream(Experiment& e, Testbed& tb, const proto::StackConfig& sc,
                const std::vector<std::uint8_t>& data, std::uint32_t offset,
                int msgs) {
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  std::uint64_t delivered = 0, intact = 0;
  sim::Tick first = 0, last = 0;
  sb->set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
    if (delivered == 0) first = at;
    last = at;
    ++delivered;
    if (d == data) ++intact;
  });
  const proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, data, offset);
  sim::Tick t = 0;
  for (int i = 0; i < msgs; ++i) t = sa->send(t, vci, m);
  tb.run();
  count_run(e, tb.eng);
  Streamed out;
  out.delivered = static_cast<double>(delivered) / msgs;
  out.intact = static_cast<double>(intact) / msgs;
  if (delivered >= 2 && last > first) {
    out.mbps = sim::mbps(data.size() * (delivered - 1), last - first);
  }
  return out;
}

double us_of(double ticks) { return ticks / 1e6; }  // Tick = picoseconds

}  // namespace

// IP MTU 16 KB and UDP checksumming off, the paper's setup.
Experiment table1_latency() {
  return timed("table1_latency",
               "Table 1: round-trip latency (us) between kernel test programs",
               "message bytes", [](Experiment& e) {
    struct Series {
      bool alpha;
      bool udp;
      double paper[4];
    };
    const Series series[] = {
        {false, false, {353, 417, 486, 778}},
        {false, true, {598, 659, 725, 1011}},
        {true, false, {154, 215, 283, 449}},
        {true, true, {316, 376, 446, 619}},
    };
    const std::uint32_t sizes[] = {1, 1024, 2048, 4096};
    for (const Series& s : series) {
      const auto mode =
          s.udp ? proto::StackMode::kUdpIp : proto::StackMode::kRawAtm;
      for (int i = 0; i < 4; ++i) {
        e.add(machine_name(s.alpha) + (s.udp ? "_udp" : "_atm"), sizes[i],
              rtt(e, machine(s.alpha), machine(s.alpha), mode, sizes[i], 12)
                  .rtt_us_mean,
              s.paper[i]);
      }
    }

    // One span-instrumented run, both directions merged, so the latency
    // distribution covers every PDU of it.
    obs::PduSpans spans_a, spans_b;
    NodeConfig ca = make_5000_200_config();
    NodeConfig cb = make_5000_200_config();
    ca.spans = &spans_a;
    cb.spans = &spans_b;
    rtt(e, ca, cb, proto::StackMode::kRawAtm, 1024, 200);
    obs::PduSpans merged;
    merged.merge_stages(spans_a);
    merged.merge_stages(spans_b);
    const sim::Log2Histogram& e2e = merged.stage(obs::Stage::kEndToEnd);
    PduLatency lat;
    lat.pdus = e2e.count();
    lat.e2e_us_p50 = us_of(e2e.quantile(0.50));
    lat.e2e_us_p90 = us_of(e2e.quantile(0.90));
    lat.e2e_us_p99 = us_of(e2e.quantile(0.99));
    lat.e2e_us_p999 = us_of(e2e.quantile(0.999));
    for (const obs::Stage s :
         {obs::Stage::kEnqueueToDpram, obs::Stage::kSegment, obs::Stage::kWire,
          obs::Stage::kReassemble, obs::Stage::kRxDma, obs::Stage::kDeliver}) {
      lat.stage_us_p50.emplace_back(obs::stage_name(s),
                                    us_of(merged.stage(s).quantile(0.50)));
    }
    e.pdu_latency = std::move(lat);
  });
}

namespace {

// A Figure 2 or 3 curve: one node and stack configuration, swept over
// 1-256 KB messages, with the paper's plateau from 16 KB up.
struct Curve {
  const char* name;
  NodeConfig node;
  proto::StackConfig stack;
  double plateau;
};

void receive_curves(Experiment& e, atm::Vci vci, const std::vector<Curve>& curves) {
  for (std::uint32_t kb = 1; kb <= 256; kb *= 2) {
    const std::uint32_t bytes = kb * 1024;
    const std::uint64_t msgs = bytes >= 65536 ? 24 : (bytes >= 8192 ? 48 : 96);
    for (const Curve& c : curves) {
      add_received(e, c.name, kb, receive(e, c.node, c.stack, vci, bytes, msgs),
                   kb >= 16 ? c.plateau : kNoPaper);
    }
  }
}

}  // namespace

// The board generates messages as fast as the host absorbs them.
Experiment fig2_receive_5000() {
  return timed("fig2_receive_5000",
               "Figure 2: DEC 5000/200 UDP/IP receive throughput (Mbps)",
               "message KB", [](Experiment& e) {
    const auto node = [](bool double_dma, bool eager) {
      NodeConfig c = make_5000_200_config();
      c.board.double_cell_dma_rx = double_dma;
      c.driver.eager_invalidate = eager;
      return c;
    };
    receive_curves(e, 700, {{"double_dma", node(true, false), {}, 379},
                            {"single_dma", node(false, false), {}, 340},
                            {"eager_inval", node(false, true), {}, 250}});
  });
}

// The crossbar memory system and DMA-coherent cache let double-cell DMA
// approach the 516 Mbps link payload bandwidth.
Experiment fig3_receive_3000() {
  return timed("fig3_receive_3000",
               "Figure 3: DEC 3000/600 UDP/IP receive throughput (Mbps)",
               "message KB", [](Experiment& e) {
    const auto node = [](bool double_dma) {
      NodeConfig c = make_3000_600_config();
      c.board.double_cell_dma_rx = double_dma;
      return c;
    };
    proto::StackConfig cksum;
    cksum.udp_checksum = true;
    receive_curves(e, 701, {{"double_dma", node(true), {}, 516},
                            {"double_dma_cksum", node(true), cksum, 438},
                            {"single_dma", node(false), {}, kNoPaper},
                            {"single_dma_cksum", node(false), cksum, kNoPaper}});
  });
}

// Single-cell transmit DMA, receiver a 3000/600: TURBOchannel
// per-transaction overhead caps the 3000/600 near the paper's 325 Mbps.
Experiment fig4_transmit() {
  return timed("fig4_transmit", "Figure 4: UDP/IP transmit throughput (Mbps)",
               "message KB", [](Experiment& e) {
    struct Series {
      const char* name;
      bool alpha;
      bool cksum;
      double plateau;
    };
    const Series series[] = {{"3000_600", true, false, 325},
                             {"3000_600_cksum", true, true, kNoPaper},
                             {"5000_200", false, false, kNoPaper}};
    for (std::uint32_t kb = 1; kb <= 256; kb *= 2) {
      const std::uint32_t bytes = kb * 1024;
      const std::uint64_t msgs = bytes >= 65536 ? 20 : (bytes >= 8192 ? 40 : 80);
      for (const Series& s : series) {
        proto::StackConfig sc;
        sc.udp_checksum = s.cksum;
        e.add(s.name, kb, transmit(e, machine(s.alpha), sc, bytes, msgs).mbps,
              kb >= 16 ? s.plateau : kNoPaper);
      }
    }
  });
}

// §2.5.1: the TURBOchannel bound of one DMA transaction, n/(n+13) x 800
// Mbps for reads (transmit) and n/(n+8) x 800 for writes (receive), and
// the share of it lost to the fixed overhead. End to end on the 3000/600
// with 64 KB messages: receive with single- and double-cell DMA, and the
// §4 prediction that double-cell transmit DMA lands between single-cell
// transmit and double-cell receive.
Experiment dma_length() {
  return timed("dma_length",
               "§2.5.1: DMA transaction length vs TURBOchannel bandwidth "
               "(Mbps, % overhead); 3000/600 end to end at 64 KB (Mbps)",
               "cells per DMA transaction", [](Experiment& e) {
    sim::Engine eng;
    tc::TurboChannel bus(eng);
    for (std::uint32_t cells = 1; cells <= 8; ++cells) {
      const std::uint32_t bytes = cells * 44;
      const double words = bus.words(bytes);
      const auto mbps = [&](sim::Duration cost) {
        return static_cast<double>(bytes) * 8.0 / sim::to_ns(cost) * 1000.0;
      };
      const auto overhead_pct = [&](std::uint32_t cycles) {
        return 100.0 * cycles / (cycles + words);
      };
      e.add("read_mbps", cells, mbps(bus.dma_read_cost(bytes)),
            cells == 1 ? 367 : (cells == 2 ? 503 : kNoPaper));
      e.add("write_mbps", cells, mbps(bus.dma_write_cost(bytes)),
            cells == 1 ? 463 : (cells == 2 ? 587 : kNoPaper));
      e.add("read_overhead_pct", cells,
            overhead_pct(tc::kDmaReadOverheadCycles));
      e.add("write_overhead_pct", cells,
            overhead_pct(tc::kDmaWriteOverheadCycles));
    }
    for (const bool dbl : {false, true}) {
      NodeConfig c = make_3000_600_config();
      c.board.double_cell_dma_rx = dbl;
      add_received(e, "e2e_rx", dbl ? 2 : 1, receive(e, c, {}, 700, 64 * 1024, 24));
    }
    for (const bool dbl : {false, true}) {
      NodeConfig c = make_3000_600_config();
      c.board.double_cell_dma_tx = dbl;
      e.add("e2e_tx", dbl ? 2 : 1, transmit(e, c, {}, 64 * 1024, 25).mbps);
    }
  });
}

// §2.1.2: the board interrupts only on the receive queue's empty ->
// non-empty transition, and signals transmit completion by the tail
// pointer, interrupting only when a full queue drains to half empty.
Experiment interrupts() {
  return timed("interrupts",
               "§2.1.2: receive interrupts per PDU; transmit interrupts and "
               "suspensions over 200 x 16 KB (3000/600)",
               "message KB", [](Experiment& e) {
    struct Case {
      bool alpha;
      std::uint32_t kb;
      std::uint64_t msgs;
    };
    const Case cases[] = {{false, 2, 150}, {false, 16, 60}, {false, 64, 30},
                          {true, 2, 150},  {true, 16, 60},  {true, 64, 30}};
    for (const Case& c : cases) {
      const Received p = receive(e, machine(c.alpha), {}, 700, c.kb * 1024, c.msgs);
      const std::string m = machine_name(c.alpha);
      e.add(m + ".pdus", c.kb, static_cast<double>(p.r.pdus));
      e.add(m + ".interrupts", c.kb, static_cast<double>(p.r.interrupts));
      e.add(m + ".irq_per_pdu", c.kb, p.r.interrupts_per_pdu);
      e.add(m + ".delivered", c.kb, p.delivered);
    }
    const auto r = transmit(e, make_3000_600_config(), {}, 16 * 1024, 200,
                            [&](Testbed& tb) {
      e.add("tx.interrupts", 16, static_cast<double>(tb.a.intc.raised()));
      e.add("tx.suspensions", 16,
            static_cast<double>(tb.a.driver.tx_suspensions()));
    });
    e.add("tx.delivered", 16, static_cast<double>(r.messages) / 200);
  });
}

// §2.1.1: 64 descriptors pushed by the host and popped by the board, all
// requested at once; one 32-bit access costs 600 ns. Lock-free, each side
// proceeds alone; behind a test-and-set lock every operation serializes.
Experiment lockfree() {
  return timed("lockfree",
               "§2.1.1: lock-free vs spin-lock descriptor queues (simulated "
               "us; dual-port RAM accesses per operation)",
               "operations per side", [](Experiment& e) {
    using namespace dpram;
    const sim::Duration access = sim::ns(600);
    constexpr int kOps = 64;
    {
      DualPortRam ram;
      const QueueLayout lay{0, 128};
      QueueWriter w(ram, lay, Side::kHost);
      QueueReader r(ram, lay, Side::kBoard);
      std::uint64_t push_accesses = 0, pop_accesses = 0;
      for (int i = 0; i < kOps; ++i) {
        push_accesses += w.push({1u, 2u, 3, 0, 4u}).ram_accesses;
      }
      for (int i = 0; i < kOps; ++i) {
        OpResult res;
        r.pop(&res);
        pop_accesses += res.ram_accesses;
      }
      e.add("lockfree.push_accesses", kOps,
            static_cast<double>(push_accesses) / kOps);
      e.add("lockfree.pop_accesses", kOps,
            static_cast<double>(pop_accesses) / kOps);
      e.add("lockfree.push_finish_us", kOps, sim::to_us(access * push_accesses));
    }
    {
      sim::Engine eng;
      DualPortRam ram;
      TestAndSetLock lock(eng, "tas");
      const QueueLayout lay{0, 128};
      LockedQueue q(ram, lay, lock);
      sim::Tick last_push = 0, last_pop = 0;
      for (int i = 0; i < kOps; ++i) {
        if (const auto t = q.push(Side::kHost, 0, access, {1u, 2u, 3, 0, 4u})) {
          last_push = *t;
        }
      }
      for (int i = 0; i < kOps; ++i) {
        sim::Tick done = 0;
        q.pop(Side::kBoard, 0, access, &done);
        last_pop = done;
      }
      e.add("spinlock.finish_us", kOps, sim::to_us(std::max(last_push, last_pop)));
      e.add("spinlock.lock_wait_us", kOps,
            sim::to_us(lock.resource().wait_total()));
    }
  });
}

// §2.2: one 16 KB message through UDP/IP on a 5000/200 pair. The driver
// handles one descriptor per physical buffer. An MTU of a page multiple
// plus the 28 header bytes puts fragment boundaries on page boundaries
// when the message is page aligned.
Experiment fragmentation() {
  return timed("fragmentation",
               "§2.2: IP fragments and physical buffers for one 16 KB message",
               "IP MTU bytes", [](Experiment& e) {
    struct Case {
      std::uint32_t mtu;
      std::uint32_t offset;  // of the message in its first page
    };
    const Case cases[] = {{4096, 100},      {4096, 0},
                          {4096 + 28, 100}, {4096 + 28, 0},
                          {16 * 1024 + 28, 0}};
    for (const Case& c : cases) {
      auto tb = testbed(e, make_5000_200_config(), make_5000_200_config());
      const atm::Vci vci = tb->open_kernel_path();
      proto::StackConfig sc;
      sc.ip_mtu = c.mtu;
      auto sa = tb->a.make_stack(sc);
      auto sb = tb->b.make_stack(sc);
      sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
      const std::vector<std::uint8_t> data(16 * 1024, 0x42);
      sa->send(0, vci, proto::Message::from_payload(tb->a.kernel_space, data,
                                                    c.offset));
      tb->run();
      count_run(e, tb->eng);
      const std::string series = c.offset == 0 ? "aligned" : "unaligned";
      const bool worst = c.mtu == 4096 && c.offset != 0;
      e.add(series + ".frags", c.mtu,
            static_cast<double>(sa->buffers_per_pdu().count()));
      e.add(series + ".bufs", c.mtu, sa->buffers_per_pdu().sum(),
            worst ? 14 : kNoPaper);
    }
  });
}

// §2.3 on the non-coherent 5000/200, single-cell DMA: lazy invalidation
// (the paper's choice) against invalidating every received byte, with the
// CPU reading the data (UDP checksum) or not; then a sustained
// checksumming receiver, whose 64 receive buffers of 16 KB put 63 buffers
// between a line's reuse in the 64 KB cache.
Experiment cache() {
  return timed("cache",
               "§2.3: cache invalidation on the DEC 5000/200 (Mbps; stale "
               "lines and reads)",
               "message KB", [](Experiment& e) {
    const auto config = [](bool eager) {
      NodeConfig c = make_5000_200_config();
      c.board.double_cell_dma_rx = false;
      c.driver.eager_invalidate = eager;
      return c;
    };
    struct Series {
      const char* name;
      bool eager;
      bool cksum;
      double paper;
    };
    const Series series[] = {{"lazy", false, false, 340},
                             {"eager", true, false, 250},
                             {"lazy_cksum", false, true, 80},
                             {"eager_cksum", true, true, kNoPaper}};
    for (const Series& s : series) {
      proto::StackConfig sc;
      sc.udp_checksum = s.cksum;
      add_received(e, s.name, 64, receive(e, config(s.eager), sc, 700, 64 * 1024, 24),
                   s.paper);
    }

    proto::StackConfig sc;
    sc.udp_checksum = true;
    const Received p = receive(e, config(false), sc, 702, 16 * 1024, 60,
                               [&](Node& n, proto::ProtoStack& stack) {
      e.add("sustained.lines_made_stale", 16,
            static_cast<double>(n.cache.dma_stale_lines()));
      e.add("sustained.stale_reads", 16,
            static_cast<double>(n.cache.stale_reads()), 0);
      e.add("sustained.checksum_failures", 16,
            static_cast<double>(stack.checksum_failures()));
      e.add("sustained.stale_recoveries", 16,
            static_cast<double>(stack.stale_recoveries()));
    });
    add_received(e, "sustained", 16, p);
  });
}

// §2.6: 30 x 32 KB messages over a skewed striped link between two
// 3000/600s with double-cell receive DMA, for both reassembly strategies.
// Goodput stays flat: single-cell transmit DMA is the bottleneck.
Experiment skew() {
  return timed("skew",
               "§2.6: striping skew vs double-cell DMA combining (delivered "
               "and intact shares, combine fraction, Mbps)",
               "skew us", [](Experiment& e) {
    for (const char* strategy : {"seq", "quad"}) {
      for (const double skew_us : {0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0}) {
        NodeConfig ca = make_3000_600_config();
        NodeConfig cb = make_3000_600_config();
        ca.board.reassembly = strategy;
        cb.board.reassembly = strategy;
        ca.link = link::skewed_config(skew_us, 101);
        auto tb = testbed(e, std::move(ca), std::move(cb));
        const Streamed r = stream(e, *tb, {}, pattern(32 * 1024, 7), 0, 30);
        const std::string s = strategy;
        e.add(s + ".delivered", skew_us, r.delivered);
        e.add(s + ".intact", skew_us, r.intact);
        e.add(s + ".combine_frac", skew_us, tb->b.rxp.combine_fraction());
        e.add(s + ".mbps", skew_us, r.mbps);
      }
    }
  });
}

// §2.7: DMA vs programmed I/O, judged by how fast the application reads
// 32 KB of received data. DMA lands the data uncached on the 5000/200;
// PIO moves every word across the TURBOchannel with the CPU, which leaves
// it in the cache.
Experiment dma_vs_pio() {
  return timed("dma_vs_pio",
               "§2.7: DMA vs PIO, transfer and then application read (Mbps)",
               "KB moved", [](Experiment& e) {
    constexpr std::uint32_t kBytes = 32 * 1024;
    for (const bool alpha : {false, true}) {
      const host::MachineConfig mc =
          alpha ? host::dec_3000_600() : host::decstation_5000_200();
      const std::string m = machine_name(alpha);
      // Application access: read the data through the cache after `t`.
      const auto app_read = [&](mem::DataCache& cache, host::HostCpu& cpu,
                                sim::Tick t) {
        std::vector<std::uint8_t> buf(kBytes);
        const mem::AccessCost cost = cache.cpu_read(0, buf);
        const sim::Tick done = cpu.exec(
            t, host::Work{mc.cache_cpu_time(cost, kBytes, 0.0), cost.mem_words});
        return sim::mbps(kBytes, done - t);
      };
      {
        sim::Engine eng;
        mem::PhysicalMemory pm(1 << 22);
        mem::DataCache cache(pm, mc.cache);
        tc::TurboChannel bus(eng);
        host::HostCpu cpu(eng, mc, bus);
        // 88-byte DMA writes back to back.
        sim::Tick t = 0;
        const std::vector<std::uint8_t> chunk(88, 0xAB);
        for (std::uint32_t off = 0; off < kBytes; off += 88) {
          t = bus.dma_write(t, 88);
          cache.dma_write(off % (1 << 20), chunk);
        }
        e.add(m + ".dma_transfer", 32, sim::mbps(kBytes, t));
        e.add(m + ".dma_app_read", 32, app_read(cache, cpu, t));
      }
      {
        sim::Engine eng;
        mem::PhysicalMemory pm(1 << 22);
        mem::DataCache cache(pm, mc.cache);
        tc::TurboChannel bus(eng);
        host::HostCpu cpu(eng, mc, bus);
        // The CPU reads each word from the adaptor and stores it to the
        // application buffer, so the buffer's lines end up resident.
        const sim::Tick t = cpu.pio(0, bus.words(kBytes), 0);
        std::vector<std::uint8_t> buf(kBytes);
        cache.cpu_read(0, buf);
        e.add(m + ".pio_transfer", 32, sim::mbps(kBytes, t));
        e.add(m + ".pio_app_read", 32, app_read(cache, cpu, t));
      }
    }
  });
}

// §3.1: a driver -> protocol server -> application path (2 crossings).
// With early demultiplexing the adaptor places a PDU straight into an fbuf
// already mapped along its path (cached); otherwise every page is remapped
// at every crossing (uncached). The paper cites an order of magnitude.
Experiment fbuf() {
  return timed("fbuf",
               "§3.1: cached vs uncached fbuf, us per page over 2 domain "
               "crossings",
               "domain crossings", [](Experiment& e) {
    for (const bool alpha : {false, true}) {
      const host::MachineConfig mc =
          alpha ? host::dec_3000_600() : host::decstation_5000_200();
      sim::Engine eng;
      mem::FrameAllocator frames{1 << 25, true, 9};
      tc::TurboChannel bus(eng);
      host::HostCpu cpu(eng, mc, bus);
      fbuf::FbufPool pool(eng, mc, cpu, frames);
      const int cached_path = pool.create_path({0, 1, 2});
      const int cold_path = pool.create_path({0, 1, 2});

      // 256 pages on the warmed path; the application frees every 16.
      sim::Tick t = 0;
      {
        auto [b, t2] = pool.alloc(t, cached_path);
        pool.free(t2, b);
        t = t2;
      }
      const sim::Tick start = t;
      std::uint64_t bytes = 0;
      std::vector<fbuf::Fbuf> held;
      for (int i = 0; i < 256; ++i) {
        auto [b, t2] = pool.alloc(t, cached_path);
        t = pool.deliver(t2, b, 2);
        bytes += b.bytes;
        held.push_back(b);
        if (held.size() >= 16) {
          for (auto& h : held) pool.free(t, h);
          held.clear();
        }
      }
      const double page_bits = static_cast<double>(mem::kPageSize) * 8.0;
      const double cached_us = page_bits / sim::mbps(bytes, t - start);
      // The first allocation on a never-used path is an uncached fbuf.
      auto [b, t0] = pool.alloc(0, cold_path);
      const double uncached_us = sim::to_us(pool.deliver(t0, b, 2) - t0);

      const std::string m = machine_name(alpha);
      e.add(m + ".cached_us", 2, cached_us);
      e.add(m + ".uncached_us", 2, uncached_us);
      e.add(m + ".advantage", 2, uncached_us / cached_us, 10);
    }
  });
}

namespace {

enum class Access {
  kKernel,  // test programs linked into the kernel (the paper's baseline)
  kAdc,     // a user-space ADC on each node
  kUser,    // user processes paying a syscall and 2 IPC hops per message
};

// Mean RTT (us) of 10 raw-ATM round trips between two like machines.
double access_rtt(Experiment& e, bool alpha, std::uint32_t bytes,
                  Access access) {
  auto tb = testbed(e, machine(alpha), machine(alpha));
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  const auto data = pattern(bytes, 3);
  sim::Summary rtts;
  int remaining = 10;
  sim::Tick started = 0;
  if (access == Access::kAdc) {
    adc::Adc ca(tb->a.adc_deps(), 1, {900}, 1, sc);
    adc::Adc cb(tb->b.adc_deps(), 1, {900}, 1, sc);
    const proto::Message ma = proto::Message::from_payload(ca.space(), data);
    const proto::Message mb = proto::Message::from_payload(cb.space(), data);
    ca.authorize(ma.scatter());
    cb.authorize(mb.scatter());
    cb.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
      cb.send(at, v, mb);
    });
    ca.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
      rtts.add(sim::to_us(at - started));
      if (--remaining > 0) {
        started = at;
        ca.send(at, v, ma);
      }
    });
    ca.send(0, 900, ma);
    tb->run();
  } else {
    const atm::Vci vci = tb->open_kernel_path();
    auto sa = tb->a.make_stack(sc);
    auto sb = tb->b.make_stack(sc);
    const proto::Message ma = proto::Message::from_payload(tb->a.kernel_space, data);
    const proto::Message mb = proto::Message::from_payload(tb->b.kernel_space, data);
    const host::MachineConfig& mc = tb->a.cfg.machine;
    const host::Work toll{access == Access::kUser
                              ? mc.syscall + mc.domain_crossing * 2
                              : sim::Duration{0},
                          0};
    sb->set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
      sb->send(tb->b.cpu.exec(at, toll), v, mb);
    });
    sa->set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
      const sim::Tick t = tb->a.cpu.exec(at, toll);
      rtts.add(sim::to_us(t - started));
      if (--remaining > 0) {
        started = t;
        sa->send(tb->a.cpu.exec(t, toll), v, ma);
      }
    });
    sa->send(tb->a.cpu.exec(0, toll), vci, ma);
    tb->run();
  }
  count_run(e, tb->eng);
  return rtts.mean();
}

}  // namespace

// §3.2/§4: an application reaches the network through a kernel-resident
// test program (the paper's baseline), through its own ADC (user-space
// access to a board queue pair), or as a user process behind the kernel.
// The paper found ADC user-to-user latency within the error margins of
// kernel-to-kernel.
Experiment adc() {
  return timed("adc", "§3.2/§4: round-trip latency (us) by access path",
               "message bytes", [](Experiment& e) {
    for (const bool alpha : {false, true}) {
      const std::string m = machine_name(alpha);
      for (const std::uint32_t bytes : {1u, 1024u, 4096u}) {
        e.add(m + ".kernel", bytes, access_rtt(e, alpha, bytes, Access::kKernel));
        e.add(m + ".adc", bytes, access_rtt(e, alpha, bytes, Access::kAdc));
        e.add(m + ".user_via_kernel", bytes,
              access_rtt(e, alpha, bytes, Access::kUser));
      }
    }
  });
}

// §2.5.2: 15 checksummed 16 KB UDP messages from an unaligned buffer
// between two 3000/600s. The original controller moves one fixed 44-byte
// transfer per cell, so each buffer's tail cell carries bytes of adjacent
// memory and mid-PDU padding; the modified one stops at the buffer
// boundary and takes a second address.
Experiment fixed_dma() {
  return timed("fixed_dma",
               "§2.5.2: fixed-length vs page-boundary-stop transmit DMA "
               "(delivered and intact shares, cells, leaked bytes, Mbps)",
               "message KB", [](Experiment& e) {
    for (const bool fixed : {false, true}) {
      NodeConfig ca = make_3000_600_config();
      ca.board.fixed_length_dma_tx = fixed;
      auto tb = testbed(e, std::move(ca), make_3000_600_config());
      proto::StackConfig sc;
      sc.udp_checksum = true;
      const Streamed r = stream(e, *tb, sc, pattern(16 * 1024, 11), 100, 15);
      const std::string s = fixed ? "fixed" : "page_stop";
      e.add(s + ".delivered", 16, r.delivered);
      e.add(s + ".intact", 16, r.intact);
      e.add(s + ".cells", 16, static_cast<double>(tb->a.txp.cells_sent()));
      e.add(s + ".leaked_cells", 16, static_cast<double>(tb->a.txp.leaked_cells()));
      e.add(s + ".leaked_bytes", 16, static_cast<double>(tb->a.txp.leaked_bytes()));
      e.add(s + ".mbps", 16, r.mbps);
    }
  });
}

// §2.4: every page handed to the board must be wired first. Mach's
// standard service also wires the page-table pages; the driver's
// low-level fast path does only what DMA needs.
Experiment wiring() {
  return timed("wiring",
               "§2.4: page wiring, send CPU time (us) and 64 KB transmit "
               "throughput (Mbps)",
               "message KB", [](Experiment& e) {
    struct Mode {
      const char* name;
      mem::WiringMode mode;
    };
    const Mode modes[] = {{"fast", mem::WiringMode::kFastPath},
                          {"mach", mem::WiringMode::kMachStandard}};
    for (const bool alpha : {false, true}) {
      const std::string m = machine_name(alpha);
      for (const std::uint32_t kb : {4u, 16u, 64u}) {
        for (const Mode& w : modes) {
          NodeConfig cfg = machine(alpha);
          cfg.driver.wiring = w.mode;
          auto tb = testbed(e, std::move(cfg), machine(alpha));
          const atm::Vci vci = tb->open_kernel_path();
          auto sa = tb->a.make_stack(proto::StackConfig{});
          auto sb = tb->b.make_stack(proto::StackConfig{});
          sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
          const sim::Tick done = sa->send(
              0, vci,
              proto::Message::from_payload(
                  tb->a.kernel_space, std::vector<std::uint8_t>(kb * 1024, 0x31)));
          tb->run();
          count_run(e, tb->eng);
          e.add(m + "." + w.name + "_us", kb, sim::to_us(done));
        }
      }
    }
    for (const bool alpha : {false, true}) {
      for (const Mode& w : modes) {
        NodeConfig cfg = machine(alpha);
        cfg.driver.wiring = w.mode;
        e.add(machine_name(alpha) + "." + w.name + "_mbps", 64,
              transmit(e, std::move(cfg), {}, 64 * 1024, 20).mbps);
      }
    }
  });
}

// §3.1: early demultiplexing gives each path its own receive queue and
// free buffers on the board. A 3000/600 posts 60 x 3000 B on each of two
// raw-ATM ADC pairs, every send booked before the run, to a 5000/200 whose
// consumers take 60 us (fast path, VCI 800) and 900 us (slow path, VCI
// 801) per PDU. The slow path's buffers run out, so the board drops its
// PDUs before they cost the host anything; the fast path loses none.
Experiment priority() {
  return timed("priority",
               "§3.1: receiver overload with per-path queues (PDUs the "
               "consumer handled and the driver took, board drops, "
               "receiver interrupts)",
               "PDUs offered per path", [](Experiment& e) {
    constexpr int kMsgs = 60;
    auto tb = testbed(e, make_3000_600_config(), make_5000_200_config());
    proto::StackConfig sc;
    sc.mode = proto::StackMode::kRawAtm;
    adc::Adc fast_tx(tb->a.adc_deps(), 1, {800}, 2, sc);
    adc::Adc slow_tx(tb->a.adc_deps(), 2, {801}, 1, sc);
    adc::Adc fast_rx(tb->b.adc_deps(), 1, {800}, 2, sc);
    adc::Adc slow_rx(tb->b.adc_deps(), 2, {801}, 1, sc);
    std::uint64_t fast_got = 0, slow_got = 0;
    fast_rx.driver().set_rx_handler([&](sim::Tick at, host::RxPduView&) {
      ++fast_got;
      return at + sim::us(60);
    });
    slow_rx.driver().set_rx_handler([&](sim::Tick at, host::RxPduView&) {
      ++slow_got;
      return at + sim::us(900);
    });
    const std::vector<std::uint8_t> data(3000, 0x77);
    const proto::Message mf = proto::Message::from_payload(fast_tx.space(), data);
    const proto::Message ms = proto::Message::from_payload(slow_tx.space(), data);
    fast_tx.authorize(mf.scatter());
    slow_tx.authorize(ms.scatter());
    sim::Tick tf = 0, ts = 0;
    for (int i = 0; i < kMsgs; ++i) {
      tf = fast_tx.send(tf, 800, mf);
      ts = slow_tx.send(ts, 801, ms);
    }
    tb->run();
    count_run(e, tb->eng);
    e.add("fast.delivered_pdus", kMsgs, static_cast<double>(fast_got));
    e.add("fast.host_pdus", kMsgs,
          static_cast<double>(fast_rx.driver().pdus_received()));
    e.add("slow.delivered_pdus", kMsgs, static_cast<double>(slow_got));
    e.add("slow.host_pdus", kMsgs,
          static_cast<double>(slow_rx.driver().pdus_received()));
    e.add("board_drops", kMsgs,
          static_cast<double>(tb->b.rxp.pdus_dropped_nobuf() +
                              tb->b.rxp.pdus_dropped_recvfull()));
    e.add("interrupts", kMsgs, static_cast<double>(tb->b.intc.raised()));
  });
}

// --- Robustness --------------------------------------------------------

// §1 puts reliability in a protocol above the adaptor: ARQ over a lossy
// link, 1000 x 200 B messages one per 50 us, window 16, rto 1 ms, 30
// retries, as wire cell loss sweeps from 0 to 5%.
Experiment fault() {
  return timed("fault",
               "§1: ARQ above a lossy link, 1000 x 200 B (delivered share, "
               "retransmissions, Mbps, latency us, dead VCI)",
               "cell loss %", [](Experiment& e) {
    constexpr std::uint32_t kMessages = 1000;
    constexpr std::size_t kBytes = 200;
    constexpr sim::Duration kGap = sim::us(50);
    for (const double loss_pct : {0.0, 0.5, 1.0, 2.0, 5.0}) {
      NodeConfig ca = make_3000_600_config();
      ca.board.reassembly = "seq";  // loss-tolerant reassembly
      ca.link.cell_loss_p = loss_pct / 100;
      ca.link.seed = 7;
      NodeConfig cb = make_3000_600_config();
      cb.board.reassembly = "seq";
      auto tb = testbed(e, std::move(ca), std::move(cb));
      // The receiver's watchdog heartbeat also drives reassembly GC;
      // without it, partial PDUs from lost EOM cells pin receive buffers
      // until the pool runs dry and the link collapses.
      tb->b.start_watchdog(sim::ms(1), sim::ms(5), /*until=*/sim::sec(1));
      const atm::Vci vci = tb->open_kernel_path();
      proto::StackConfig sc;
      sc.udp_checksum = true;
      auto sa = tb->a.make_stack(sc);
      auto sb = tb->b.make_stack(sc);
      proto::ArqConfig ac;
      ac.window = 16;
      ac.rto = sim::ms(1);
      ac.max_rto = sim::ms(10);
      ac.max_retries = 30;
      proto::ArqEndpoint arq_a(tb->a.eng, *sa, tb->a.kernel_space, tb->a.cpu,
                               tb->a.cfg.machine, ac);
      proto::ArqEndpoint arq_b(tb->b.eng, *sb, tb->b.kernel_space, tb->b.cpu,
                               tb->b.cfg.machine, ac);
      arq_a.bind(vci);
      arq_b.bind(vci);

      std::uint64_t delivered = 0;
      sim::Tick last = 0;
      std::vector<double> latency_us;
      arq_b.set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
        // The first four payload bytes carry the send index, and message
        // i is sent at i * kGap.
        std::uint32_t idx = 0;
        std::memcpy(&idx, d.data(), sizeof(idx));
        latency_us.push_back(sim::to_us(at - static_cast<sim::Tick>(idx) * kGap));
        ++delivered;
        last = at;
      });
      std::vector<std::uint8_t> payload(kBytes, 0x5A);
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        tb->a.eng.schedule_at(static_cast<sim::Tick>(i) * kGap, [&, i] {
          std::memcpy(payload.data(), &i, sizeof(i));
          arq_a.send(tb->a.eng.now(), vci, payload);
        });
      }
      tb->run();
      count_run(e, tb->eng);
      e.add("delivered", loss_pct, static_cast<double>(delivered) / kMessages);
      e.add("retransmissions", loss_pct,
            static_cast<double>(arq_a.retransmissions()));
      e.add("goodput_mbps", loss_pct,
            last > 0 ? sim::mbps(delivered * kBytes, last) : 0.0);
      e.add("p50_us", loss_pct, benchjson::quantile(latency_us, 0.50));
      e.add("p99_us", loss_pct, benchjson::quantile(latency_us, 0.99));
      e.add("dead", loss_pct, arq_a.dead(vci) ? 1 : 0);
    }
  });
}

// §3.2: firmware checks plus OS policy confine a misbehaving application
// without taxing good ones. Tenants 1 and 2 each send 200 x 2000 B over
// their own ADC pair, posting each message when their previous post
// completes. In the adversary scenario, tenant 3 floods forged
// descriptors from a higher-priority queue until the AdcSupervisor
// quarantines it.
Experiment adc_isolation() {
  return timed("adc_isolation",
               "§3.2: ADC tenants beside an adversarial tenant, 200 x 2000 B "
               "each (delivered share, Mbps, latency us; attacker "
               "violations, quarantined)",
               "tenant", [](Experiment& e) {
    constexpr std::uint32_t kMessages = 200;
    constexpr std::size_t kBytes = 2000;
    for (const bool adversary : {false, true}) {
      auto tb = testbed(e, make_3000_600_config(), make_3000_600_config());
      proto::StackConfig sc;
      sc.mode = proto::StackMode::kRawAtm;
      adc::AdcSupervisor sup(tb->a.eng, tb->a.txp, tb->a.rxp);

      struct Tenant {
        atm::Vci vci = 0;
        std::unique_ptr<adc::Adc> tx, rx;
        std::vector<sim::Tick> sent_at;
        std::vector<double> latency_us;
        sim::Tick last = 0;
      };
      std::vector<Tenant> tenants(2);
      for (int pair = 1; pair <= 2; ++pair) {
        Tenant& t = tenants[pair - 1];
        t.vci = 900 + pair;
        t.tx = std::make_unique<adc::Adc>(tb->a.adc_deps(), pair,
                                          std::vector<atm::Vci>{t.vci}, 1, sc);
        t.rx = std::make_unique<adc::Adc>(tb->b.adc_deps(), pair,
                                          std::vector<atm::Vci>{t.vci}, 1, sc);
      }
      std::vector<std::uint8_t> payload(kBytes, 0x77);
      std::function<void(Tenant&)> post = [&](Tenant& t) {
        const auto k = static_cast<std::uint32_t>(t.sent_at.size());
        std::memcpy(payload.data(), &k, sizeof(k));
        // A message is a view: its frames stay in the tenant's address
        // space until the Adc goes, so dropping `m` is safe.
        const proto::Message m = proto::Message::from_payload(t.tx->space(), payload);
        t.tx->authorize(m.scatter());
        const sim::Tick now = tb->a.eng.now();
        t.sent_at.push_back(now);
        const sim::Tick done = t.tx->send(now, t.vci, m);
        if (k + 1 < kMessages) tb->a.eng.schedule_at(done, [&] { post(t); });
      };
      for (Tenant& t : tenants) {
        t.rx->set_sink([&t](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
          std::uint32_t idx = 0;
          std::memcpy(&idx, d.data(), sizeof(idx));
          t.latency_us.push_back(sim::to_us(at - t.sent_at.at(idx)));
          t.last = at;
        });
        sup.watch(*t.tx);
        tb->a.eng.schedule_at(0, [&] { post(t); });
      }

      std::unique_ptr<adc::Adc> attacker;
      fault::FaultPlane forger(0xBAD);
      std::unique_ptr<proto::Message> junk;
      int rounds = 0;
      std::function<void()> flood = [&] {
        // Two chains per round: without the firmware checks this queue
        // would drain first and starve tenants 1 and 2.
        sim::Tick t = attacker->send(tb->a.eng.now(), 910, *junk);
        t = attacker->send(t, 910, *junk);
        if (++rounds < static_cast<int>(kMessages)) {
          tb->a.eng.schedule_at(t, [&] { flood(); });
        }
      };
      if (adversary) {
        forger.arm(fault::Point::kAdcGarbageDescriptor, {1.0, 0, ~0ull});
        attacker = std::make_unique<adc::Adc>(tb->a.adc_deps(), 3,
                                              std::vector<atm::Vci>{910},
                                              /*priority=*/3, sc);
        attacker->set_fault_plane(&forger);
        junk = std::make_unique<proto::Message>(proto::Message::from_payload(
            attacker->space(), std::vector<std::uint8_t>(256, 0xEE)));
        attacker->authorize(junk->scatter());
        sup.watch(*attacker);
        tb->a.eng.schedule_at(0, [&] { flood(); });
      }
      tb->run();
      count_run(e, tb->eng);

      const std::string s = adversary ? "adversary" : "baseline";
      for (const Tenant& t : tenants) {
        const double x = t.vci - 900;
        const auto delivered = static_cast<std::uint64_t>(t.latency_us.size());
        e.add(s + ".delivered", x, static_cast<double>(delivered) / kMessages);
        e.add(s + ".goodput_mbps", x,
              t.last > 0 ? sim::mbps(delivered * kBytes, t.last) : 0.0);
        e.add(s + ".p50_us", x, benchjson::quantile(t.latency_us, 0.50));
        e.add(s + ".p99_us", x, benchjson::quantile(t.latency_us, 0.99));
      }
      if (attacker) {
        e.add("attacker.violations", 3,
              static_cast<double>(sup.violations(attacker->pair())));
        e.add("attacker.quarantined", 3, sup.quarantined(attacker->pair()) ? 1 : 0);
      }
    }
  });
}

namespace {

// One incast: tenant i on node a streams `bytes`-byte messages over its
// own ADC pair to node b with DRR weight weights[i]; together they offer
// `load` x 300 Mbps, about the sustained transmit rate, split evenly.
// Each tenant posts one message per interval from an engine event for
// 20 ms of simulated time; goodput counts only what arrives in that
// window, so the backlog drained after it cannot make a schedule look
// fair.
struct Incast {
  std::vector<double> mbps;  // per tenant
  double aggregate = 0;
  double jain = 0;
  std::uint64_t rx_drops = 0;
};

Incast incast(Experiment& e, double load, const std::vector<std::uint32_t>& weights,
              std::size_t bytes) {
  const sim::Tick horizon = sim::ms(20);
  auto tb = testbed(e, make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  struct Tenant {
    atm::Vci vci = 0;
    std::unique_ptr<adc::Adc> tx, rx;
    std::uint64_t in_window = 0;
  };
  std::vector<Tenant> tenants(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int pair = static_cast<int>(i) + 1;
    Tenant& t = tenants[i];
    t.vci = 900 + pair;
    t.tx = std::make_unique<adc::Adc>(tb->a.adc_deps(), pair,
                                      std::vector<atm::Vci>{t.vci}, 1, sc);
    t.rx = std::make_unique<adc::Adc>(tb->b.adc_deps(), pair,
                                      std::vector<atm::Vci>{t.vci}, 1, sc);
    tb->a.txp.set_queue_weight(pair, weights[i]);
  }
  for (Tenant& t : tenants) {
    t.rx->set_sink([&t, horizon](sim::Tick at, std::uint16_t,
                                 std::vector<std::uint8_t>&&) {
      if (at <= horizon) ++t.in_window;
    });
  }
  const double tenant_bps = load * 300e6 / static_cast<double>(tenants.size());
  const double interval_ps = static_cast<double>(bytes) * 8.0 / tenant_bps * 1e12;
  std::vector<std::uint8_t> payload(bytes, 0x51);
  for (std::uint32_t k = 0;; ++k) {
    const auto due = static_cast<sim::Tick>(static_cast<double>(k) * interval_ps);
    if (due >= horizon) break;
    tb->a.eng.schedule_at(due, [&, k] {
      for (Tenant& t : tenants) {
        std::memcpy(payload.data(), &k, sizeof(k));
        const proto::Message m = proto::Message::from_payload(t.tx->space(), payload);
        t.tx->authorize(m.scatter());
        t.tx->send(tb->a.eng.now(), t.vci, m);
      }
    });
  }
  tb->run();
  count_run(e, tb->eng);

  Incast r;
  double squares = 0;
  for (const Tenant& t : tenants) {
    r.mbps.push_back(sim::mbps(t.in_window * bytes, horizon));
    r.aggregate += r.mbps.back();
    squares += r.mbps.back() * r.mbps.back();
  }
  r.jain = r.aggregate * r.aggregate / (static_cast<double>(r.mbps.size()) * squares);
  r.rx_drops = tb->b.rxp.pdus_dropped_nobuf() + tb->b.rxp.pdus_dropped_quota();
  return r;
}

void add_incast(Experiment& e, const std::string& series, double load,
                const Incast& r) {
  e.add(series + ".aggregate_mbps", load, r.aggregate);
  e.add(series + ".jain", load, r.jain);
  e.add(series + ".min_mbps", load, *std::min_element(r.mbps.begin(), r.mbps.end()));
  e.add(series + ".max_mbps", load, *std::max_element(r.mbps.begin(), r.mbps.end()));
  e.add(series + ".rx_drops", load, static_cast<double>(r.rx_drops));
}

}  // namespace

// Per-VCI QoS under incast, the striped link as the shared bottleneck:
// the transmit firmware arbitrates the tenants' queues by deficit round
// robin (board/tx.cc). 8 equal-weight tenants send 2000 B messages at
// 0.5x to 10x the link's capacity; then 4 tenants weighted 4:2:1:1 send
// 8000 B messages at 2x.
Experiment qos() {
  return timed("qos",
               "Per-VCI DRR under incast, 20 ms window (Mbps, Jain index, rx "
               "drops); weighted tenants 1-4 have weights 4:2:1:1",
               "offered load x 300 Mbps", [](Experiment& e) {
    for (const double load : {0.5, 0.9, 2.0, 10.0}) {
      add_incast(e, "equal", load,
                 incast(e, load, std::vector<std::uint32_t>(8, 1), 2000));
    }
    const Incast w = incast(e, 2.0, {4, 2, 1, 1}, 8000);
    add_incast(e, "weighted", 2.0, w);
    for (std::size_t i = 0; i < w.mbps.size(); ++i) {
      e.add("weighted.tenant" + std::to_string(i + 1) + "_mbps", 2.0, w.mbps[i]);
    }
  });
}

// The chaos runner (DESIGN.md §12) on seeds 1-12: two nodes, mixed ARQ,
// datagram, RPC and ADC traffic under a generated fault schedule, with
// every invariant audited after the drain. run_schedule builds its own
// testbed, so that build counts as run time here.
Experiment chaos() {
  return timed("chaos",
               "Chaos schedules: faults fired, adaptor resets, ARQ resyncs, "
               "invariant violations, recovery latency p99 (us)",
               "seed", [](Experiment& e) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const chaos::Report r = chaos::run_schedule(chaos::generate(seed));
      e.engine_events += r.events;
      e.sim_seconds += static_cast<double>(r.end) / 1e12;
      const auto x = static_cast<double>(seed);
      e.add("faults_fired", x, static_cast<double>(r.faults_fired));
      e.add("resets", x, static_cast<double>(r.resets_a + r.resets_b));
      e.add("arq_resyncs", x, static_cast<double>(r.arq_resyncs));
      e.add("violations", x, static_cast<double>(r.violations.size()));
      e.add("recovery_us_p99", x, benchjson::quantile(r.recovery_us, 0.99));
    }
  });
}

}  // namespace osiris::experiments
