// Double-cell transmit DMA — the hardware change the paper reports as
// "underway" (§4): correctness, and the predicted throughput ordering
// (host-to-host falls between the single-cell transmit bound and the
// double-cell receive curve).
#include <gtest/gtest.h>

#include "experiments.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 41 + s);
  return v;
}

TEST(DoubleCellTx, DataIntegrityAcrossSizesAndAlignments) {
  NodeConfig ca = make_3000_600_config();
  ca.board.double_cell_dma_tx = true;
  Testbed tb(std::move(ca), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::vector<std::vector<std::uint8_t>> got;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got.push_back(std::move(d));
  });
  std::vector<std::vector<std::uint8_t>> sent;
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < 12; ++i) {
    auto data = pattern(37 + i * 977, static_cast<std::uint8_t>(i));
    proto::Message m = proto::Message::from_payload(
        tb.a.kernel_space, data, (i * 517) % mem::kPageSize);
    t = sa->send(t, vci, m);
    sent.push_back(std::move(data));
  }
  tb.run();
  EXPECT_EQ(got, sent);
}

TEST(DoubleCellTx, FewerLargerDmaReads) {
  auto count = [](bool dbl) {
    NodeConfig ca = make_3000_600_config();
    ca.board.double_cell_dma_tx = dbl;
    Testbed tb(std::move(ca), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    auto sa = tb.a.make_stack(proto::StackConfig{});
    auto sb = tb.b.make_stack(proto::StackConfig{});
    proto::Message m = proto::Message::from_payload(tb.a.kernel_space,
                                                    pattern(16000, 1), 0);
    sa->send(0, vci, m);
    tb.run();
    return tb.a.txp.dma_ops();
  };
  const auto single = count(false);
  const auto dbl = count(true);
  EXPECT_GT(single, dbl);
  EXPECT_NEAR(static_cast<double>(single) / static_cast<double>(dbl), 2.0, 0.25);
}

TEST(DoubleCellTx, ThroughputOrderingMatchesPaperPrediction) {
  // §4: "With double cell DMA transfers on the transmit side, the
  // host-to-host throughput attained is expected to fall between the
  // graphs for single cell DMA and that for double cell DMA on the
  // receive side." The dma_length experiment measures both directions on
  // the 3000/600 with 64 KB messages, by cells per DMA transaction.
  const experiments::Experiment d = experiments::dma_length();
  const double single = d.at("e2e_tx", 1).measured;
  const double dbl = d.at("e2e_tx", 2).measured;
  EXPECT_GT(dbl, single + 50) << "double-cell transmit must help a lot";
  EXPECT_LT(dbl, d.at("e2e_rx", 2).measured)
      << "and stay under the double-cell receive curve";
  EXPECT_LT(dbl, 520.0) << "and under the link payload bandwidth";
  // Bus arithmetic: single-cell transmit ~326 Mbps incl. setup cycles;
  // double-cell read bound is 503 Mbps.
  EXPECT_NEAR(single, 320, 35);
  EXPECT_GT(dbl, 400);
}

TEST(DoubleCellTx, SkewDoesNotBreakDoubleCellTransmit) {
  NodeConfig ca = make_3000_600_config();
  ca.board.double_cell_dma_tx = true;
  ca.link = link::skewed_config(25.0, 5);
  Testbed tb(std::move(ca), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t ok = 0;
  const auto want = pattern(20000, 9);
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, want);
    ++ok;
  });
  proto::Message m = proto::Message::from_payload(tb.a.kernel_space, want);
  sim::Tick t = 0;
  for (int i = 0; i < 8; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_EQ(ok, 8u);
}

}  // namespace
}  // namespace osiris
