// Fault injection: cell loss, bit errors on the wire, and the
// recovery/GC paths (§2.3's condition 1: the network is unreliable and
// detection mechanisms are already in place).
#include <gtest/gtest.h>

#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 19 + s);
  return v;
}

struct Net {
  Testbed tb;
  std::unique_ptr<proto::ProtoStack> sa, sb;
  Net(NodeConfig ca, NodeConfig cb, proto::StackConfig sc)
      : tb(std::move(ca), std::move(cb)) {
    sa = tb.a.make_stack(sc);
    sb = tb.b.make_stack(sc);
  }
};

TEST(Errors, PayloadCorruptionCaughtByChecksumNotMisdeliveredAsStale) {
  NodeConfig ca = make_3000_600_config();
  // ~0.02 flips per cell: nearly every message takes payload damage, and
  // about a third also lose a cell to a header flip the HEC catches.
  ca.link.wire_ber = 5e-5;
  ca.link.seed = 99;
  proto::StackConfig sc;
  sc.udp_checksum = true;
  Net net(std::move(ca), make_3000_600_config(), sc);
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t ok = 0, escapes = 0;
  const auto want = pattern(8000, 1);
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    // The 16-bit one's-complement checksum can be fooled by bit flips
    // that cancel (a genuine protocol weakness); count escapes.
    if (d != want) {
      ++escapes;
    } else {
      ++ok;
    }
  });
  proto::Message m =
      proto::Message::from_payload(net.tb.a.kernel_space, want);
  sim::Tick t = 0;
  for (int i = 0; i < 20; ++i) t = net.sa->send(t, vci, m);
  net.tb.run();
  EXPECT_GT(net.sb->checksum_failures(), 0u) << "most damage must be caught";
  EXPECT_EQ(net.sb->stale_recoveries(), 0u) << "wire damage is not stale cache";
  // A message that lost a cell at the framer never completes.
  EXPECT_GT(net.tb.a.out.cells_hec_dropped(), 0u);
  EXPECT_LT(ok + escapes + net.sb->checksum_failures(), 20u);
  EXPECT_LT(escapes, net.sb->checksum_failures())
      << "escapes must be the minority";
}

TEST(Errors, HeaderCorruptionDropsCellsAtTheFramer) {
  NodeConfig ca = make_3000_600_config();
  ca.link.wire_ber = 1e-2;  // about a third of the cells take a header flip
  Net net(std::move(ca), make_3000_600_config(), proto::StackConfig{});
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t delivered = 0;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  proto::Message m =
      proto::Message::from_payload(net.tb.a.kernel_space, pattern(3000, 2));
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_GT(net.tb.a.out.cells_hec_dropped(), 0u);
}

TEST(Errors, CellLossLeavesIncompletePdusAndGcReclaims) {
  NodeConfig ca = make_3000_600_config();
  ca.board.reassembly = "seq";  // per-cell placement tolerates gaps cleanly
  // A 10 KB message is ~230 cells; 0.2% loss kills roughly a third of the
  // messages while letting most through.
  ca.link.cell_loss_p = 0.002;
  ca.link.seed = 7;
  NodeConfig cb = make_3000_600_config();
  cb.board.reassembly = "seq";
  proto::StackConfig sc;
  sc.udp_checksum = true;
  Net net(std::move(ca), std::move(cb), sc);
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t delivered = 0;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, pattern(d.size(), 3));
    ++delivered;
  });
  proto::Message m =
      proto::Message::from_payload(net.tb.a.kernel_space, pattern(10000, 3));
  sim::Tick t = 0;
  for (int i = 0; i < 25; ++i) t = net.sa->send(t, vci, m);
  net.tb.run();
  EXPECT_LT(delivered, 25u) << "2% loss must kill some messages";
  EXPECT_GT(delivered, 0u);
  // Incomplete reassembly state remains on the board; GC reclaims it.
  const std::uint64_t purged = net.tb.b.rxp.purge_incomplete(0);
  EXPECT_GT(purged, 0u);
  EXPECT_EQ(net.tb.b.rxp.purge_incomplete(0), 0u) << "idempotent";
  // Partial buffer accumulations in the driver are reclaimed too.
  net.tb.b.driver.flush_partials(net.tb.now());
  net.tb.run();
}

TEST(Errors, LossyBurstsDoNotPoisonLaterTraffic) {
  // After a lossy interval, new messages on the SAME vci must still work
  // (seq strategy: per-cell placement keyed by pdu id).
  NodeConfig ca = make_3000_600_config();
  ca.board.reassembly = "seq";
  NodeConfig cb = make_3000_600_config();
  cb.board.reassembly = "seq";
  proto::StackConfig sc;
  sc.udp_checksum = true;
  Net net(std::move(ca), std::move(cb), sc);
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t delivered = 0;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  proto::Message m =
      proto::Message::from_payload(net.tb.a.kernel_space, pattern(5000, 4));
  // Phase 1: drop EVERY cell by corrupting headers at the receiver's rx.
  // (simulate by sending to an unmapped VCI: cells are discarded)
  proto::Message junk =
      proto::Message::from_payload(net.tb.a.kernel_space, pattern(5000, 5));
  net.sa->send(0, 999, junk);  // VCI 999 unmapped at B
  net.tb.run();
  EXPECT_EQ(delivered, 0u);
  // Phase 2: normal traffic flows untouched.
  sim::Tick t = net.tb.now();
  for (int i = 0; i < 5; ++i) t = net.sa->send(t, vci, m);
  net.tb.run();
  EXPECT_EQ(delivered, 5u);
}

TEST(Errors, QuadStrategyIsFragileUnderLossAsPaperImplies) {
  // Strategy B's per-lane counting has no per-cell identity: losing cells
  // desynchronizes lane attribution, so messages after the loss point can
  // be corrupted or lost until state resets. We assert only that the
  // checksum shields the application (nothing corrupt delivered).
  NodeConfig ca = make_3000_600_config();
  ca.link.cell_loss_p = 0.01;
  ca.link.seed = 21;
  proto::StackConfig sc;
  sc.udp_checksum = true;
  Net net(std::move(ca), make_3000_600_config(), sc);
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t delivered = 0;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, pattern(d.size(), 6)) << "checksum must shield the app";
    ++delivered;
  });
  proto::Message m =
      proto::Message::from_payload(net.tb.a.kernel_space, pattern(4000, 6));
  sim::Tick t = 0;
  for (int i = 0; i < 20; ++i) t = net.sa->send(t, vci, m);
  net.tb.run();
  EXPECT_LT(delivered, 20u);
}

TEST(Errors, RecvQueueOverflowShedsWholePdus) {
  // A wedged driver thread: the receive queue fills; the board drops
  // complete PDUs at push time and the host pays nothing for them.
  sim::Engine eng;
  NodeConfig cfg = make_3000_600_config();
  Node n(eng, cfg);
  n.map_kernel_vci(500);
  n.driver.set_rx_handler(
      [&](sim::Tick at, host::RxPduView&) { return at + sim::sec(1); });
  std::vector<std::uint8_t> pdu(600, 1);
  n.rxp.start_generator_multi(500, {pdu}, 400, 0);
  eng.run_until(sim::ms(50));
  EXPECT_GT(n.rxp.pdus_dropped_recvfull() + n.rxp.pdus_dropped_nobuf(), 0u);
}

}  // namespace
}  // namespace osiris
