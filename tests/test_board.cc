// Board firmware tests: transmit segmentation via DMA, receive reassembly
// into host memory, interrupt discipline, DMA combining, authorization.
#include <gtest/gtest.h>

#include "atm/sar.h"
#include "osiris/node.h"
#include "osiris/stats.h"

namespace osiris {
namespace {

struct Fixture {
  sim::Engine eng;
  std::unique_ptr<Node> node;

  explicit Fixture(NodeConfig cfg = make_3000_600_config()) {
    cfg.link.base_delay_us = 1.0;
    node = std::make_unique<Node>(eng, cfg);
    // Loop the node's transmit link back into its own receive processor.
    node->out.set_sink(
        [this](int lane, const atm::Cell& c) { node->rxp.on_cell(lane, c); });
  }
};

TEST(Board, LoopbackPduRoundTrip) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(200);

  std::vector<std::uint8_t> payload(5000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  std::vector<std::uint8_t> got;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    got.resize(pdu.pdu_len);
    pdu.read_raw(n.pm, 0, got);
    return at;
  });

  const mem::VirtAddr va =
      n.kernel_space.alloc(static_cast<std::uint32_t>(payload.size()), 40);
  n.kernel_space.write(va, payload);
  const auto sc =
      n.kernel_space.scatter(va, static_cast<std::uint32_t>(payload.size()));
  n.driver.send(f.eng.now(), 200, sc);
  f.eng.run();

  EXPECT_EQ(got, payload);
  EXPECT_EQ(n.txp.pdus_sent(), 1u);
  EXPECT_EQ(n.rxp.pdus_completed(), 1u);
  EXPECT_EQ(n.driver.pdus_received(), 1u);
}

TEST(Board, ManyPdusKeepDataIntegrity) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(201);
  std::vector<std::vector<std::uint8_t>> sent, got;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    std::vector<std::uint8_t> d(pdu.pdu_len);
    pdu.read_raw(n.pm, 0, d);
    got.push_back(std::move(d));
    return at;
  });
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> payload(100 + i * 321);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(j + i * 17);
    }
    const mem::VirtAddr va = n.kernel_space.alloc(
        static_cast<std::uint32_t>(payload.size()), (i * 100) % 4096);
    n.kernel_space.write(va, payload);
    t = n.driver.send(
        t, 201,
        n.kernel_space.scatter(va, static_cast<std::uint32_t>(payload.size())));
    sent.push_back(std::move(payload));
  }
  f.eng.run();
  EXPECT_EQ(got, sent);  // in-order, intact
}

TEST(Board, ReceiveInterruptOnlyOnEmptyToNonEmpty) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(202);
  n.driver.set_rx_handler(
      [&](sim::Tick at, host::RxPduView&) { return at + sim::us(500); });

  // A burst of PDUs: far fewer interrupts than PDUs (§2.1.2).
  std::vector<std::uint8_t> pdu(2000, 1);
  n.rxp.start_generator_multi(202, {pdu}, 50, 0);
  f.eng.run();
  EXPECT_EQ(n.driver.pdus_received(), 50u);
  EXPECT_LT(n.intc.raised(), 10u);
  EXPECT_GE(n.intc.raised(), 1u);
}

TEST(Board, DoubleCellDmaCombinesContiguousPayloads) {
  NodeConfig cfg = make_3000_600_config();
  cfg.board.double_cell_dma_rx = true;
  Fixture f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(203);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> pdu(16000, 2);
  n.rxp.start_generator_multi(203, {pdu}, 5, 0);
  f.eng.run();
  EXPECT_GT(n.rxp.combine_fraction(), 0.8) << "in-order cells should combine";
}

TEST(Board, SingleCellDmaNeverCombines) {
  NodeConfig cfg = make_3000_600_config();
  cfg.board.double_cell_dma_rx = false;
  Fixture f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(204);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> pdu(8000, 3);
  n.rxp.start_generator_multi(204, {pdu}, 3, 0);
  f.eng.run();
  EXPECT_EQ(n.rxp.combined_dma_ops(), 0u);
}

TEST(Board, TransmitQueueFullSuspendsAndResumes) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(205);
  std::uint64_t received = 0;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) {
    ++received;
    return at;
  });
  // Push far more PDUs than the 64-entry queue holds, back to back.
  std::vector<std::uint8_t> payload(100, 9);
  const mem::VirtAddr va = n.kernel_space.alloc(100);
  n.kernel_space.write(va, payload);
  const auto sc = n.kernel_space.scatter(va, 100);
  sim::Tick t = 0;
  for (int i = 0; i < 300; ++i) t = n.driver.send(t, 205, sc);
  f.eng.run();
  // Every PDU makes it through the transmit path (suspension + resume on
  // the half-empty interrupt); the receiver may shed load at the free
  // queue (§3.1) but PDUs are conserved.
  EXPECT_EQ(n.txp.pdus_sent(), 300u);
  EXPECT_GE(n.driver.tx_suspensions(), 1u);
  EXPECT_EQ(received + n.rxp.pdus_dropped_nobuf() +
                n.rxp.pdus_dropped_recvfull(),
            300u);
  EXPECT_GT(received, 100u);
}

TEST(Board, FreeQueueExhaustionDropsPdusBeforeHostCycles) {
  // §3.1: when no buffers remain, the board drops the PDU — the host never
  // sees it.
  NodeConfig cfg = make_3000_600_config();
  cfg.driver.rx_buffers = 4;
  Fixture f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(206);
  // The driver thread is slow: hold each PDU a long time.
  n.driver.set_rx_handler(
      [&](sim::Tick at, host::RxPduView&) { return at + sim::ms(50); });
  std::vector<std::uint8_t> pdu(16000, 4);
  n.rxp.start_generator_multi(206, {pdu}, 30, 0);
  f.eng.run();
  EXPECT_GT(n.rxp.pdus_dropped_nobuf(), 0u);
  EXPECT_LT(n.driver.pdus_received(), 30u);
}

TEST(Board, TailAdvanceSignalsCompletionWithoutInterrupt) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(207);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> payload(500, 5);
  const mem::VirtAddr va = n.kernel_space.alloc(500);
  n.kernel_space.write(va, payload);
  const auto sc = n.kernel_space.scatter(va, 500);
  n.driver.send(0, 207, sc);
  f.eng.run();
  // One receive interrupt; no transmit-completion interrupt.
  EXPECT_EQ(n.intc.raised(), 1u);
  // Pages were unwired after a later send reaped the completion.
  n.driver.send(f.eng.now(), 207, sc);
  f.eng.run();
  EXPECT_LE(n.driver.wiring().wired_frames(), 2u);
}

// Feeds a one-cell PDU on `vci` straight into the receive firmware.
// Reassembly completes inside on_cell(), so on return the PDU's
// receive-queue push is scheduled for its DMA completion and has not fired.
void inject_pdu(Node& n, atm::Vci vci, std::uint16_t pdu_id) {
  const std::vector<std::uint8_t> pdu(20, 6);
  const std::vector<atm::Cell> cells = atm::segment(pdu, vci, pdu_id);
  ASSERT_EQ(cells.size(), 1u);
  n.rxp.on_cell(0, cells[0]);
}

TEST(Board, PushForADetachedChannelIsDroppedWhenItFires) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(208);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  inject_pdu(n, 208, 1);
  f.eng.run();
  ASSERT_EQ(n.driver.pdus_received(), 1u);

  inject_pdu(n, 208, 2);
  ASSERT_EQ(n.rxp.pdus_completed(), 2u);
  n.rxp.remove_channel(0);  // the kernel's channel, detached mid-completion
  f.eng.run();
  EXPECT_EQ(stats(n).counter("qos.dead_channel_drops"), 1u);
  // Nothing reached the receive queue: no second interrupt, no delivery.
  EXPECT_EQ(n.intc.raised(), 1u);
  EXPECT_EQ(n.driver.pdus_received(), 1u);
}

TEST(Board, CellOnARemovedChannelTakesNoBuffer) {
  // A removed channel's free queue may already belong to a reopened
  // channel on the same pages, so the firmware never pops it again: the
  // PDU drops for want of a buffer before any DMA or push.
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(210);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  const std::uint32_t free_tail = n.kernel_layout.free.tail_word();
  const std::uint32_t tail_before = n.ram.read(dpram::Side::kHost, free_tail);
  n.rxp.remove_channel(0);
  inject_pdu(n, 210, 1);
  f.eng.run();
  EXPECT_EQ(stats(n).counter("rx.pdus_dropped_nobuf"), 1u);
  EXPECT_EQ(n.ram.read(dpram::Side::kHost, free_tail), tail_before);
  EXPECT_EQ(n.intc.raised(), 0u);
  EXPECT_EQ(n.driver.pdus_received(), 0u);
}

TEST(Board, PushScheduledBeforeResetDiesAtTheEpochCheck) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(209);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  inject_pdu(n, 209, 1);
  f.eng.run();
  ASSERT_EQ(n.driver.pdus_received(), 1u);

  inject_pdu(n, 209, 2);
  ASSERT_EQ(n.rxp.pdus_completed(), 2u);
  n.rxp.reset();
  f.eng.run();
  EXPECT_EQ(n.intc.raised(), 1u);
  EXPECT_EQ(n.driver.pdus_received(), 1u);
  EXPECT_EQ(stats(n).counter("qos.dead_channel_drops"), 0u);
}

// The generator's default period: one cell per 622 Mbps cell time. Started
// at tick 0 with room in the FIFO, it generates cell i (from 0) at i
// periods.
constexpr sim::Duration kCellPeriod = sim::ns(681.6);

/// Has `f`'s generator offer `msgs` 4000-byte PDUs on `vci`, to a driver
/// that absorbs them at once.
void start_generating(Fixture& f, atm::Vci vci, std::uint64_t msgs) {
  Node& n = *f.node;
  n.map_kernel_vci(vci);
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
  n.rxp.start_generator_multi(vci, {std::vector<std::uint8_t>(4000, 7)}, msgs, 0);
}

TEST(Board, GeneratorTrainKeepsTickSeqOrder) {
  // A train runs cells in one engine event only while nothing else is
  // due: an event queued before the run at cell k's tick still runs
  // before cell k, and one scheduled at that tick once cell k's step is
  // queued runs after it.
  constexpr std::uint64_t k = 40;
  std::uint64_t before = 0;
  {
    Fixture f;
    start_generating(f, 210, 3);
    f.eng.schedule_at(k * kCellPeriod,
                      [&] { before = f.node->rxp.cells_generated(); });
    f.eng.run();
  }
  EXPECT_EQ(before, k);

  std::uint64_t after = 0;
  {
    Fixture f;
    start_generating(f, 210, 3);
    // Between cells k-1 and k, cell k's step is already queued.
    f.eng.schedule_at(k * kCellPeriod - 1, [&] {
      f.eng.schedule_at(k * kCellPeriod,
                        [&] { after = f.node->rxp.cells_generated(); });
    });
    f.eng.run();
  }
  EXPECT_EQ(after, k + 1);
}

TEST(Board, GeneratorTrainStopsAtARunUntilDeadline) {
  // run_until() to a deadline mid-train, then run(), ends where one run()
  // does; at the deadline, exactly the cells due by then exist.
  const auto run = [](bool split) {
    Fixture f;
    start_generating(f, 211, 3);
    const Node& n = *f.node;
    if (split) {
      f.eng.run_until(sim::us(20) + 1);
      EXPECT_EQ(n.rxp.cells_generated(), (sim::us(20) + 1) / kCellPeriod + 1);
    }
    f.eng.run();
    return std::vector<std::uint64_t>{f.eng.now(), n.rxp.cells_generated(),
                                      n.rxp.dma_ops(), n.rxp.combined_dma_ops(),
                                      n.rxp.pdus_completed(),
                                      n.driver.pdus_received()};
  };
  const std::vector<std::uint64_t> whole = run(false);
  EXPECT_EQ(whole[1], 3 * 92u);  // 3 PDUs of 4008 wire bytes, 92 cells each
  EXPECT_EQ(run(true), whole);
}

TEST(Board, ResetStopsTheGenerator) {
  // A reset cancels the generator's queued step: no cells come between
  // the reset and a restart, and after the restart one per period, not
  // two chains' worth.
  Fixture f;
  start_generating(f, 212, 1000);
  Node& n = *f.node;
  f.eng.run_until(sim::us(200));
  const std::uint64_t at_reset = n.rxp.cells_generated();
  EXPECT_EQ(at_reset, sim::us(200) / kCellPeriod + 1);
  n.rxp.reset();
  f.eng.run_until(sim::us(400));
  EXPECT_EQ(n.rxp.cells_generated(), at_reset);
  n.rxp.start_generator_multi(212, {std::vector<std::uint8_t>(4000, 7)}, 1000, 0);
  f.eng.run_until(sim::us(410));
  EXPECT_EQ(n.rxp.cells_generated() - at_reset, sim::us(10) / kCellPeriod + 1);
}

}  // namespace
}  // namespace osiris
