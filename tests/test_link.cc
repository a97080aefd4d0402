// Unit tests for the striped link: striping, bandwidth, skew, cell loss.
#include <gtest/gtest.h>

#include <map>

#include "atm/sar.h"
#include "link/link.h"

namespace osiris::link {
namespace {

struct Capture {
  struct Arrival {
    sim::Tick at;
    int lane;
    atm::Cell cell;
  };
  std::vector<Arrival> arrivals;
};

std::vector<atm::Cell> make_cells(std::uint32_t pdu_len, atm::Vci vci = 1) {
  std::vector<std::uint8_t> pdu(pdu_len, 0x5A);
  return atm::segment(pdu, vci, 0);
}

TEST(StripedLink, RoundRobinStartsAtLaneZeroPerPdu) {
  sim::Engine eng;
  StripedLink link(eng, LinkConfig{});
  Capture cap;
  link.set_sink([&](int lane, const atm::Cell& c) {
    cap.arrivals.push_back({eng.now(), lane, c});
  });
  sim::Tick t = 0;
  for (int pdu = 0; pdu < 3; ++pdu) {
    for (const auto& c : make_cells(200)) t = link.submit(t, c);
  }
  eng.run();
  for (const auto& a : cap.arrivals) {
    EXPECT_EQ(a.lane, a.cell.seq % atm::kLanes);
  }
}

TEST(StripedLink, CellTimeMatches155MbpsLane) {
  sim::Engine eng;
  StripedLink link(eng, LinkConfig{});
  // 53 bytes at 155.52 Mbps = 2.726 us.
  EXPECT_NEAR(sim::to_us(link.cell_time()), 2.726, 0.01);
}

TEST(StripedLink, AggregateBandwidthIsFourLanes) {
  // A long PDU must clock out at ~4 cells per cell time (~622 Mbps raw).
  sim::Engine eng;
  StripedLink link(eng, LinkConfig{});
  std::uint64_t n = 0;
  sim::Tick last = 0;
  link.set_sink([&](int, const atm::Cell&) {
    ++n;
    last = eng.now();
  });
  const auto cells = make_cells(44000);  // ~1000 cells
  // Offer all cells immediately: each lane clocks its share back to back.
  for (const auto& c : cells) link.submit(0, c);
  eng.run();
  ASSERT_EQ(n, cells.size());
  const double raw_mbps =
      static_cast<double>(n) * atm::kCellWire * 8 / sim::to_us(last) ;
  EXPECT_NEAR(raw_mbps, 622.0, 15.0);
}

TEST(StripedLink, NoSkewPreservesGlobalOrderPerLane) {
  sim::Engine eng;
  StripedLink link(eng, LinkConfig{});
  std::map<int, std::uint16_t> last_seq;
  link.set_sink([&](int lane, const atm::Cell& c) {
    if (last_seq.count(lane) != 0) {
      EXPECT_GT(c.seq, last_seq[lane]);
    }
    last_seq[lane] = c.seq;
  });
  sim::Tick t = 0;
  for (const auto& c : make_cells(10000)) t = link.submit(t, c);
  eng.run();
}

TEST(StripedLink, SkewReordersAcrossLanesButNotWithin) {
  sim::Engine eng;
  StripedLink link(eng, skewed_config(/*skew_us=*/30, /*seed=*/3));
  std::map<int, sim::Tick> last_at;
  std::map<int, std::uint16_t> last_seq;
  bool cross_lane_misorder = false;
  std::uint16_t max_seq_seen = 0;
  link.set_sink([&](int lane, const atm::Cell& c) {
    // Within a lane: arrival times and seqs strictly increase.
    if (last_at.count(lane) != 0) {
      EXPECT_GT(eng.now(), last_at[lane]);
      EXPECT_GT(c.seq, last_seq[lane]);
    }
    last_at[lane] = eng.now();
    last_seq[lane] = c.seq;
    if (c.seq < max_seq_seen) cross_lane_misorder = true;
    max_seq_seen = std::max(max_seq_seen, c.seq);
  });
  sim::Tick t = 0;
  for (const auto& c : make_cells(44 * 400)) t = link.submit(t, c);
  eng.run();
  EXPECT_TRUE(cross_lane_misorder) << "30 us of skew must reorder cells";
}

TEST(StripedLink, CellLossDropsCells) {
  sim::Engine eng;
  LinkConfig cfg;
  cfg.cell_loss_p = 0.5;
  cfg.seed = 7;
  StripedLink link(eng, cfg);
  std::uint64_t n = 0;
  link.set_sink([&](int, const atm::Cell&) { ++n; });
  const auto cells = make_cells(44 * 200);
  sim::Tick t = 0;
  for (const auto& c : cells) t = link.submit(t, c);
  eng.run();
  EXPECT_EQ(n + link.cells_lost(), cells.size());
  EXPECT_GT(link.cells_lost(), cells.size() / 4);
  EXPECT_LT(link.cells_lost(), cells.size() * 3 / 4);
}

TEST(StripedLink, BackpressureViaReturnedDeparture) {
  sim::Engine eng;
  StripedLink link(eng, LinkConfig{});
  link.set_sink([](int, const atm::Cell&) {});
  const auto cells = make_cells(44 * 8);  // 8 cells, 2 per lane
  sim::Tick t = 0;
  std::vector<sim::Tick> departures;
  for (const auto& c : cells) {
    t = link.submit(t, c);
    departures.push_back(t);
  }
  // Cell 4 uses lane 0 again: its departure is >= one cell time after
  // cell 0's.
  EXPECT_GE(departures[4], departures[0] + link.cell_time());
}

TEST(SkewedConfig, SpreadsAllThreeCauses) {
  const LinkConfig cfg = skewed_config(40.0);
  EXPECT_DOUBLE_EQ(cfg.path_offset_us[0], 0.0);
  EXPECT_DOUBLE_EQ(cfg.path_offset_us[3], 20.0);
  EXPECT_DOUBLE_EQ(cfg.mux_jitter_us, 10.0);
  EXPECT_DOUBLE_EQ(cfg.queue_jitter_us, 10.0);
}

}  // namespace
}  // namespace osiris::link
