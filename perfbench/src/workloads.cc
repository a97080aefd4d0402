#include "workloads.h"

#include <chrono>
#include <iterator>
#include <memory>
#include <optional>

#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "proto/stack.h"
#include "sim/engine.h"

namespace perfbench {

namespace {

using namespace osiris;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

SpanLog* span_log(Tracing* tr) { return tr != nullptr ? tr->spans : nullptr; }
int run_id(Tracing* tr) { return tr != nullptr ? tr->run : 0; }

/// Adds the wall time of its scope to `*acc_s` (seconds) and, when traced,
/// records the scope as span `name`.
class Timed {
 public:
  Timed(double* acc_s, Tracing* tr, const char* name)
      : acc_s_(acc_s), span_(span_log(tr), name, run_id(tr)), t0_(Clock::now()) {}
  ~Timed() {
    *acc_s_ += std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double* acc_s_;
  ScopedSpan span_;
  Clock::time_point t0_;
};

/// ProtoStack::send, timed per call when traced (proto.send_us_*).
sim::Tick timed_send(Tracing* tr, proto::ProtoStack& stack, sim::Tick at,
                     atm::Vci vci, const proto::Message& m) {
  if (tr == nullptr) return stack.send(at, vci, m);
  const ScopedSpan span(tr->spans, "send", tr->run);
  const auto t0 = Clock::now();
  const sim::Tick done = stack.send(at, vci, m);
  tr->send_ns->push_back(
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  return done;
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Seeded Fisher-Yates (std::shuffle's draw sequence is library-defined).
template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[splitmix64(seed) % i]);
  }
}

std::vector<std::uint32_t> kb_sizes(std::uint32_t from_kb, std::uint32_t to_kb) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t kb = from_kb; kb <= to_kb; kb *= 2) out.push_back(kb * 1024);
  return out;
}

std::vector<std::uint8_t> pattern(std::uint32_t bytes, std::uint32_t mul) {
  std::vector<std::uint8_t> v(bytes);
  for (std::uint32_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<std::uint8_t>(i * mul + 7);
  }
  return v;
}

void add_resource(std::map<std::string, double>& m, const std::string& prefix,
                  const sim::Resource& r) {
  m[prefix + ".reservations"] += static_cast<double>(r.reservations());
  m[prefix + ".busy_ps"] += static_cast<double>(r.busy_total());
  m[prefix + ".wait_ps"] += static_cast<double>(r.wait_total());
}

/// Folds one node's simulated counters into the block's sums.
void add_node(BlockResult& b, Node& n) {
  auto& m = b.sim;
  const sim::Engine::Stats st = n.eng.stats();
  m["sim.elapsed_ps"] += static_cast<double>(n.eng.now());
  m["sim.events"] += static_cast<double>(st.dispatched);
  m["sim.far_scheduled"] += static_cast<double>(st.far_scheduled);
  m["sim.cancelled"] += static_cast<double>(st.cancelled);
  add_resource(m, "tc.bus", n.bus.bus());
  add_resource(m, "host.cpu", n.cpu.resource());
  add_resource(m, "board.rx.i960", n.rxp.i960());
  add_resource(m, "board.tx.i960", n.txp.i960());
  m["board.rx.cells"] += static_cast<double>(n.rxp.cells_received());
  m["board.rx.dma_ops"] += static_cast<double>(n.rxp.dma_ops());
  m["board.rx.combined_dma_ops"] += static_cast<double>(n.rxp.combined_dma_ops());
  m["board.tx.cells"] += static_cast<double>(n.txp.cells_sent());
  m["board.tx.dma_ops"] += static_cast<double>(n.txp.dma_ops());
  m["board.tx.dma_splits"] += static_cast<double>(n.txp.dma_splits());
  m["host.interrupts"] += static_cast<double>(n.intc.raised());
  m["host.pdus_received"] += static_cast<double>(n.driver.pdus_received());
  m["host.pdus_sent"] += static_cast<double>(n.driver.pdus_sent());
  m["dpram.host_accesses"] += static_cast<double>(n.ram.host_accesses());
  m["mem.cache_stale_reads"] += static_cast<double>(n.cache.stale_reads());
  m["link.cells_sent"] += static_cast<double>(n.out.cells_sent());
  m["link.cells_lost"] += static_cast<double>(n.out.cells_lost());
  double& occ = m["flow.occupancy"];
  occ = std::max(occ, static_cast<double>(n.rxp.flow_occupancy()));
}

/// Takes one host-speed probe between items when the block is probed.
void between_items(BlockResult& b, bool probe) {
  if (!probe) return;
  b.probe_s += host_probe_seconds();
  ++b.probes;
}

void attach_probe(Tracing* tr, sim::Engine& eng) {
  if (tr != nullptr) eng.set_step_probe(tr->steps);
}

obs::PduSpans* spans_if_traced(Tracing* tr, obs::PduSpans& local) {
  return tr != nullptr && tr->pdu != nullptr ? &local : nullptr;
}

void merge_spans(Tracing* tr, const obs::PduSpans& local) {
  if (tr != nullptr && tr->pdu != nullptr) tr->pdu->merge_stages(local);
}

// The rx_stream, tx_stream and pingpong loops mirror osiris::harness's
// receive_throughput, transmit_throughput and ping_pong (same host CPU
// charges, hence the same simulated results) rather than calling them, so
// that the benchmark can time every send and sink callback from outside
// and check each delivery.

// ---- rx_stream: Figures 2 and 3 ---------------------------------------
//
// One node per configuration, streaming every message size in seeded order
// through the board's fictitious-PDU generator; the generator is throttled
// by the on-board FIFO, i.e. paced by how fast the host absorbs messages.

struct RxConfig {
  bool alpha;  // DEC 3000/600 (else DECstation 5000/200)
  bool double_dma;
  bool eager_invalidate;
  bool udp_checksum;
  double paper_mbps;  // plateau read off the paper's figure; 0 = none
};

constexpr RxConfig kRxConfigs[] = {
    {false, true, false, false, 379},  // Fig. 2 double-cell DMA
    {false, false, false, false, 340},  // Fig. 2 single-cell DMA
    {false, false, true, false, 250},  // Fig. 2 single-cell + eager invalidate
    {true, true, false, false, 516},   // Fig. 3 double-cell DMA
    {true, true, false, true, 438},    // Fig. 3 double-cell + UDP checksum
    {true, false, false, false, 0},    // Fig. 3 single-cell DMA
    {true, false, false, true, 0},     // Fig. 3 single-cell + UDP checksum
};

/// Receive-path PDU accounting of one node, differenced around an item.
struct BoardLedger {
  std::uint64_t completed = 0, shed = 0, received = 0, checksum_failures = 0;

  static BoardLedger of(Node& n, const proto::ProtoStack& stack) {
    const board::RxProcessor& rx = n.rxp;
    return {rx.pdus_completed(),
            rx.pdus_dropped_nobuf() + rx.pdus_dropped_recvfull() +
                rx.pdus_dropped_quota() + rx.pdus_evicted(),
            n.driver.pdus_received(), stack.checksum_failures()};
  }
  BoardLedger operator-(const BoardLedger& o) const {
    return {completed - o.completed, shed - o.shed, received - o.received,
            checksum_failures - o.checksum_failures};
  }
};

// The plateau point compared with the paper (EXPERIMENTS.md reads the
// plateaus at 64 KB).
constexpr std::uint32_t kPlateauBytes = 64 * 1024;

void rx_stream(BlockResult& b, std::uint64_t seed, bool tiny, Tracing* tr,
               bool probe, Fingerprint& fp) {
  const std::vector<std::uint32_t> sizes =
      tiny ? std::vector<std::uint32_t>{1024, 4096} : kb_sizes(1, 256);
  b.msg_bytes = sizes;
  const std::size_t nconf = tiny ? 2 : std::size(kRxConfigs);
  for (std::size_t ci = 0; ci < nconf; ++ci) {
    const RxConfig& rc = kRxConfigs[ci];
    NodeConfig c = rc.alpha ? make_3000_600_config() : make_5000_200_config();
    c.board.double_cell_dma_rx = rc.double_dma;
    c.driver.eager_invalidate = rc.eager_invalidate;
    c.seed = seed;
    obs::PduSpans pdu_spans;
    c.spans = spans_if_traced(tr, pdu_spans);
    proto::StackConfig sc;
    sc.udp_checksum = rc.udp_checksum;

    std::unique_ptr<sim::Engine> eng;
    std::unique_ptr<Node> node;
    std::unique_ptr<proto::ProtoStack> stack;
    {
      const Timed t(&b.setup_s, tr, "node_build");
      eng = std::make_unique<sim::Engine>();
      node = std::make_unique<Node>(*eng, c);
    }
    {
      const Timed t(&b.setup_s, tr, "stack_setup");
      stack = node->make_stack(sc);
    }
    attach_probe(tr, *eng);

    std::vector<std::uint32_t> order = sizes;
    shuffle(order, seed * 1000 + ci);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t bytes = order[i];
      between_items(b, probe);
      const auto t_item = Clock::now();
      const ScopedSpan item(span_log(tr), "item", run_id(tr));
      const auto vci = static_cast<atm::Vci>(700 + i);
      std::vector<std::vector<std::uint8_t>> frags;
      {
        const Timed t(&b.setup_s, tr, "path_setup");
        node->map_kernel_vci(vci);
        frags = harness::make_udp_fragments(bytes, sc.ip_mtu, sc.udp_checksum);
      }
      const std::uint64_t msgs = tiny ? 4 : (bytes >= 65536 ? 24 : (bytes >= 8192 ? 48 : 96));
      std::uint64_t delivered = 0, wrong_size = 0;
      sim::Tick first = 0, last = 0;
      const sim::Duration app_recv = node->cfg.machine.app_recv;
      stack->set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
        const ScopedSpan span(span_log(tr), "sink", run_id(tr));
        if (d.size() != bytes) ++wrong_size;
        const sim::Tick t = node->cpu.exec(at, host::Work{app_recv, 0});
        if (delivered == 0) first = t;
        last = t;
        ++delivered;
      });
      const BoardLedger before = BoardLedger::of(*node, *stack);
      {
        const Timed t(&b.run_s, tr, "run");
        node->rxp.start_generator_multi(vci, frags, msgs, 0);
        eng->run();
      }
      stack->set_sink(nullptr);
      // The generator outruns the host on small and very large messages, so
      // the board sheds PDUs at the free queue (paper §3.1) and the stack
      // drops the messages they belonged to. The gate is conservation:
      // every generated PDU completed or was counted as shed, every
      // completed PDU reached the driver, and every message delivered is
      // whole and passed its checksum.
      const BoardLedger d = BoardLedger::of(*node, *stack) - before;
      if (d.completed + d.shed != msgs * frags.size() ||
          d.received != d.completed || d.checksum_failures != 0 ||
          wrong_size != 0 || delivered == 0 || delivered > msgs) {
        ++b.failed;
      }
      b.pdus += d.received;
      fp.add(bytes);
      fp.add(delivered);
      fp.add(d.shed);
      fp.add(last - first);
      if (bytes == kPlateauBytes && rc.paper_mbps > 0 && delivered >= 2) {
        b.paper_points.emplace_back(
            sim::mbps(static_cast<std::uint64_t>(bytes) * (delivered - 1), last - first),
            rc.paper_mbps);
      }
      b.item_ms.push_back(ms_since(t_item));
    }
    add_node(b, *node);
    merge_spans(tr, pdu_spans);
  }
}

// ---- tx_stream: Figure 4 ------------------------------------------------
//
// One two-node testbed per configuration; the sender issues back-to-back
// ProtoStack::send calls and blocks when the transmit queue fills, resuming
// on the driver's half-empty signal. Goodput is measured at the receiver.

struct TxConfig {
  bool alpha_sender;  // sender is a 3000/600 (the receiver always is)
  bool udp_checksum;
  double paper_mbps;
};

constexpr TxConfig kTxConfigs[] = {
    {true, false, 325},  // Fig. 4 3000/600: "maximal ... ~325 Mbps"
    {true, true, 0},     // Fig. 4 3000/600 with UDP checksum
    {false, false, 0},   // Fig. 4 5000/200
};

/// Closed-loop sender: sends until the transmit queue is full, then parks
/// on the driver's resume callback.
struct Pump {
  Node& sender;
  proto::ProtoStack& stack;
  const proto::Message& msg;
  atm::Vci vci;
  std::uint64_t total;
  Tracing* tr;
  std::uint64_t sent = 0;

  void operator()(sim::Tick t) {
    const sim::Duration app_send = sender.cfg.machine.app_send;
    while (sent < total) {
      t = sender.cpu.exec(t, host::Work{app_send, 0});
      t = timed_send(tr, stack, t, vci, msg);
      ++sent;
      if (sender.driver.tx_suspended()) {
        sender.driver.set_tx_resume([this](sim::Tick rt) { (*this)(rt); });
        return;
      }
    }
  }
};

void tx_stream(BlockResult& b, std::uint64_t seed, bool tiny, Tracing* tr,
               bool probe, Fingerprint& fp) {
  const std::vector<std::uint32_t> sizes =
      tiny ? std::vector<std::uint32_t>{4096, 8192} : kb_sizes(4, 256);
  b.msg_bytes = sizes;
  const std::size_t nconf = tiny ? 1 : std::size(kTxConfigs);
  for (std::size_t ci = 0; ci < nconf; ++ci) {
    const TxConfig& xc = kTxConfigs[ci];
    NodeConfig ca = xc.alpha_sender ? make_3000_600_config() : make_5000_200_config();
    NodeConfig cb = make_3000_600_config();
    ca.seed = seed;
    cb.seed = seed;
    obs::PduSpans spans_a, spans_b;
    ca.spans = spans_if_traced(tr, spans_a);
    cb.spans = spans_if_traced(tr, spans_b);
    proto::StackConfig sc;
    sc.udp_checksum = xc.udp_checksum;

    std::unique_ptr<Testbed> tb;
    std::unique_ptr<proto::ProtoStack> sa, sb;
    {
      const Timed t(&b.setup_s, tr, "node_build");
      tb = std::make_unique<Testbed>(ca, cb);
    }
    {
      const Timed t(&b.setup_s, tr, "stack_setup");
      sa = tb->a.make_stack(sc);
      sb = tb->b.make_stack(sc);
    }
    attach_probe(tr, tb->a.eng);
    attach_probe(tr, tb->b.eng);

    std::vector<std::uint32_t> order = sizes;
    shuffle(order, seed * 1000 + 100 + ci);
    for (const std::uint32_t bytes : order) {
      between_items(b, probe);
      const auto t_item = Clock::now();
      const ScopedSpan item(span_log(tr), "item", run_id(tr));
      atm::Vci vci = 0;
      std::optional<proto::Message> msg;
      {
        const Timed t(&b.setup_s, tr, "path_setup");
        vci = tb->open_kernel_path();
        msg.emplace(proto::Message::from_payload(tb->a.kernel_space,
                                                 pattern(bytes, 17), 0));
      }
      const std::uint64_t msgs = tiny ? 4 : (bytes >= 65536 ? 20 : (bytes >= 8192 ? 40 : 80));
      std::uint64_t delivered = 0, wrong_size = 0;
      sim::Tick first = 0, last = 0;
      sb->set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
        const ScopedSpan span(span_log(tr), "sink", run_id(tr));
        if (d.size() != bytes) ++wrong_size;
        if (delivered == 0) first = at;
        last = at;
        ++delivered;
      });
      const std::uint64_t pdus0 = tb->b.driver.pdus_received();
      Pump pump{tb->a, *sa, *msg, vci, msgs, tr};
      {
        const Timed t(&b.run_s, tr, "run");
        pump(tb->now());
        tb->run();
      }
      tb->a.driver.set_tx_resume(nullptr);
      sb->set_sink(nullptr);
      if (pump.sent != msgs || delivered != msgs || wrong_size != 0) ++b.failed;
      b.pdus += tb->b.driver.pdus_received() - pdus0;
      fp.add(bytes);
      fp.add(delivered);
      fp.add(last - first);
      if (bytes == kPlateauBytes && xc.paper_mbps > 0 && delivered >= 2) {
        b.paper_points.emplace_back(
            sim::mbps(static_cast<std::uint64_t>(bytes) * (delivered - 1), last - first),
            xc.paper_mbps);
      }
      b.item_ms.push_back(ms_since(t_item));
    }
    add_node(b, tb->a);
    add_node(b, tb->b);
    merge_spans(tr, spans_a);
    merge_spans(tr, spans_b);
  }
}

// ---- pingpong: Table 1 --------------------------------------------------
//
// A fresh two-node testbed per Table 1 cell; the kernel test programs
// exchange one message at a time and each waits for the reply.

struct PingPoint {
  bool alpha;
  bool udp;
  std::uint32_t bytes;
  double paper_us;
};

constexpr PingPoint kTable1[] = {
    {false, false, 1, 353},   {false, false, 1024, 417}, {false, false, 2048, 486},
    {false, false, 4096, 778}, {false, true, 1, 598},    {false, true, 1024, 659},
    {false, true, 2048, 725}, {false, true, 4096, 1011}, {true, false, 1, 154},
    {true, false, 1024, 215}, {true, false, 2048, 283},  {true, false, 4096, 449},
    {true, true, 1, 316},     {true, true, 1024, 376},   {true, true, 2048, 446},
    {true, true, 4096, 619},
};

constexpr int kPingIterations = 12;  // as bench_table1_latency

void pingpong(BlockResult& b, std::uint64_t seed, bool tiny, Tracing* tr,
              bool probe, Fingerprint& fp) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < std::size(kTable1); ++i) order.push_back(i);
  shuffle(order, seed * 1000 + 200);
  if (tiny) order.resize(2);
  for (const std::size_t pi : order) {
    const PingPoint& pp = kTable1[pi];
    b.msg_bytes.push_back(pp.bytes);
    between_items(b, probe);
    const auto t_item = Clock::now();
    const ScopedSpan item(span_log(tr), "item", run_id(tr));
    NodeConfig ca = pp.alpha ? make_3000_600_config() : make_5000_200_config();
    NodeConfig cb = ca;
    ca.seed = seed;
    cb.seed = seed;
    obs::PduSpans spans_a, spans_b;
    ca.spans = spans_if_traced(tr, spans_a);
    cb.spans = spans_if_traced(tr, spans_b);
    proto::StackConfig sc;
    sc.mode = pp.udp ? proto::StackMode::kUdpIp : proto::StackMode::kRawAtm;

    std::unique_ptr<Testbed> tb;
    std::unique_ptr<proto::ProtoStack> sa, sb;
    atm::Vci vci = 0;
    std::optional<proto::Message> ma, mb;
    {
      const Timed t(&b.setup_s, tr, "node_build");
      tb = std::make_unique<Testbed>(ca, cb);
    }
    {
      const Timed t(&b.setup_s, tr, "path_setup");
      vci = tb->open_kernel_path();
      const std::vector<std::uint8_t> payload = pattern(pp.bytes, 31);
      ma.emplace(proto::Message::from_payload(tb->a.kernel_space, payload, 0));
      mb.emplace(proto::Message::from_payload(tb->b.kernel_space, payload, 0));
    }
    {
      const Timed t(&b.setup_s, tr, "stack_setup");
      sa = tb->a.make_stack(sc);
      sb = tb->b.make_stack(sc);
    }
    attach_probe(tr, tb->a.eng);
    attach_probe(tr, tb->b.eng);

    const host::MachineConfig& mca = tb->a.cfg.machine;
    const host::MachineConfig& mcb = tb->b.cfg.machine;
    int remaining = kPingIterations;
    std::uint64_t rtts = 0, wrong_size = 0;
    sim::Tick rtt_sum = 0, send_started = 0;
    sb->set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&& d) {
      const ScopedSpan span(span_log(tr), "sink", run_id(tr));
      if (d.size() != pp.bytes) ++wrong_size;
      sim::Tick t = tb->b.cpu.exec(at, host::Work{mcb.app_recv, 0});
      t = tb->b.cpu.exec(t, host::Work{mcb.app_send, 0});
      timed_send(tr, *sb, t, v, *mb);
    });
    sa->set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&& d) {
      const ScopedSpan span(span_log(tr), "sink", run_id(tr));
      if (d.size() != pp.bytes) ++wrong_size;
      const sim::Tick t = tb->a.cpu.exec(at, host::Work{mca.app_recv, 0});
      rtt_sum += t - send_started;
      ++rtts;
      if (--remaining > 0) {
        send_started = t;
        timed_send(tr, *sa, tb->a.cpu.exec(t, host::Work{mca.app_send, 0}), v, *ma);
      }
    });
    const std::uint64_t pdus0 =
        tb->a.driver.pdus_received() + tb->b.driver.pdus_received();
    {
      const Timed t(&b.run_s, tr, "run");
      send_started = tb->now();
      timed_send(tr, *sa, tb->a.cpu.exec(send_started, host::Work{mca.app_send, 0}),
                 vci, *ma);
      tb->run();
    }
    sa->set_sink(nullptr);
    sb->set_sink(nullptr);
    if (rtts != kPingIterations || wrong_size != 0) ++b.failed;
    b.pdus += tb->a.driver.pdus_received() + tb->b.driver.pdus_received() - pdus0;
    fp.add(pi);
    fp.add(rtts);
    fp.add(rtt_sum);
    if (rtts > 0) {
      b.paper_points.emplace_back(sim::to_us(rtt_sum) / static_cast<double>(rtts),
                                  pp.paper_us);
    }
    add_node(b, tb->a);
    add_node(b, tb->b);
    merge_spans(tr, spans_a);
    merge_spans(tr, spans_b);
    b.item_ms.push_back(ms_since(t_item));
  }
}

// ---- chaos: one scenario after another ----------------------------------
//
// run_schedule builds its own testbed, so the benchmark cannot time that
// build from outside. setup_s instead charges each scenario the wall time
// of one reference build of the same testbed shape (two 3000/600 nodes with
// sequence-number reassembly, two kernel paths, two stacks), made once per
// block.

constexpr int kChaosScenarios = 12;  // as bench_chaos

double chaos_reference_build(std::uint64_t seed, Tracing* tr) {
  NodeConfig ca = make_3000_600_config();
  ca.board.reassembly = "seq";
  NodeConfig cb = ca;
  ca.seed = seed * 2 + 1;
  cb.seed = seed * 2 + 2;
  proto::StackConfig sc;
  sc.udp_checksum = true;
  double secs = 0;
  std::unique_ptr<Testbed> tb;  // torn down after the timed scope
  std::unique_ptr<proto::ProtoStack> sa, sb;
  {
    const Timed t(&secs, tr, "node_build");
    tb = std::make_unique<Testbed>(ca, cb);
    tb->open_kernel_path();
    tb->open_kernel_path();
    sa = tb->a.make_stack(sc);
    sb = tb->b.make_stack(sc);
  }
  return secs;
}

void chaos_block(BlockResult& b, std::uint64_t seed, bool tiny, Tracing* tr,
                 bool probe, Fingerprint& fp) {
  const int n = tiny ? 1 : kChaosScenarios;
  const chaos::RunnerConfig rc;
  b.msg_bytes = {rc.arq_bytes, rc.dgram_bytes, rc.adc_bytes};
  b.setup_s += n * chaos_reference_build(seed, tr);
  std::vector<double> recovery_us;
  auto& m = b.sim;
  for (int i = 0; i < n; ++i) {
    between_items(b, probe);
    const auto t_item = Clock::now();
    const ScopedSpan item(span_log(tr), "item", run_id(tr));
    chaos::Schedule s;
    {
      const Timed t(&b.setup_s, tr, "input_setup");
      s = chaos::generate(seed + static_cast<std::uint64_t>(i));
    }
    chaos::Report r;
    {
      const Timed t(&b.run_s, tr, "run_schedule");
      r = chaos::run_schedule(s);
    }
    if (!r.ok() || r.arq_delivered != r.arq_sent) ++b.failed;
    b.pdus += r.arq_delivered + r.dgram_delivered + r.adc_delivered + r.rpc_completed;
    fp.add(r.fingerprint);
    m["sim.events"] += static_cast<double>(r.events);
    m["proto.arq_retransmissions"] += static_cast<double>(r.arq_retransmissions);
    m["proto.rpc_timeouts"] += static_cast<double>(r.rpc_timeouts);
    m["chaos.faults_fired"] += static_cast<double>(r.faults_fired);
    m["chaos.resets"] += static_cast<double>(r.resets_a + r.resets_b);
    recovery_us.insert(recovery_us.end(), r.recovery_us.begin(), r.recovery_us.end());
    b.item_ms.push_back(ms_since(t_item));
  }
  m["chaos.recovery_us_p50"] = quantile(recovery_us, 0.5);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kRxStream, Workload::kTxStream,
                           Workload::kPingPong, Workload::kChaos}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kRxStream: return "rx_stream";
    case Workload::kTxStream: return "tx_stream";
    case Workload::kPingPong: return "pingpong";
    case Workload::kChaos: return "chaos";
  }
  return "?";
}

void add_outcomes(Fingerprint& fp, const std::map<std::string, double>& sim) {
  for (const auto& [name, value] : sim) {
    if (name == "sim.events" || name == "sim.boxed_events" ||
        name == "sim.far_scheduled" || name == "sim.cancelled") {
      continue;
    }
    fp.add_double(value);
  }
}

BlockResult run_block(Workload w, std::uint64_t seed, bool tiny, Tracing* tr,
                      bool probe) {
  BlockResult b;
  Fingerprint fp;
  const auto t0 = Clock::now();
  const std::uint64_t boxed0 = sim::Event::boxed_allocations();
  switch (w) {
    case Workload::kRxStream: rx_stream(b, seed, tiny, tr, probe, fp); break;
    case Workload::kTxStream: tx_stream(b, seed, tiny, tr, probe, fp); break;
    case Workload::kPingPong: pingpong(b, seed, tiny, tr, probe, fp); break;
    case Workload::kChaos: chaos_block(b, seed, tiny, tr, probe, fp); break;
  }
  between_items(b, probe);
  b.sim["sim.boxed_events"] =
      static_cast<double>(sim::Event::boxed_allocations() - boxed0);
  add_outcomes(fp, b.sim);
  b.fingerprint = fp.value();
  b.wall_s = std::chrono::duration<double>(Clock::now() - t0).count() - b.probe_s;
  return b;
}

}  // namespace perfbench
