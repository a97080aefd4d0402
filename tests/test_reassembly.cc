// Property and unit tests for the two §2.6 skew-reassembly strategies.
//
// Cells are striped lane = seq % 4 with each PDU restarting at lane 0
// (what the transmit firmware does). Skew means: per-lane order is
// preserved, cross-lane interleaving is arbitrary. Both routers must
// reassemble correctly under ANY such interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <numeric>

#include "atm/reassembly.h"
#include "atm/sar.h"
#include "sim/rng.h"

namespace osiris::atm {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint32_t tag) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 29 + tag * 101 + 13);
  }
  return v;
}

struct LanedCell {
  int lane;
  Cell cell;
};

/// Stripes a sequence of PDUs into per-lane streams.
std::array<std::vector<Cell>, kLanes> stripe(const std::vector<std::vector<std::uint8_t>>& pdus) {
  std::array<std::vector<Cell>, kLanes> lanes;
  std::uint16_t pdu_id = 0;
  for (const auto& p : pdus) {
    const auto cells = segment(p, /*vci=*/7, pdu_id++);
    for (const Cell& c : cells) lanes[c.seq % kLanes].push_back(c);
  }
  return lanes;
}

/// Random merge of the lane streams preserving per-lane order — i.e. an
/// arbitrary bounded-skew interleaving.
std::vector<LanedCell> random_merge(const std::array<std::vector<Cell>, kLanes>& lanes,
                                    std::uint64_t seed) {
  sim::Rng rng(seed);
  std::array<std::size_t, kLanes> pos{};
  std::size_t total = 0;
  for (const auto& l : lanes) total += l.size();
  std::vector<LanedCell> out;
  out.reserve(total);
  while (out.size() < total) {
    const int lane = static_cast<int>(rng.below(kLanes));
    const auto li = static_cast<std::size_t>(lane);
    if (pos[li] < lanes[li].size()) {
      out.push_back({lane, lanes[li][pos[li]++]});
    }
  }
  return out;
}

/// Runs a router over the interleaving; returns reassembled PDUs in
/// completion order.
std::vector<std::vector<std::uint8_t>> run_router(CellRouter& r,
                                                  const std::vector<LanedCell>& seq) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> bytes;
  std::vector<std::vector<std::uint8_t>> completed;
  std::vector<Placement> places;
  std::vector<Completion> dones;
  for (const LanedCell& lc : seq) {
    places.clear();
    dones.clear();
    r.on_cell(lc.lane, lc.cell, places, dones);
    for (const Placement& p : places) {
      auto& buf = bytes[p.pdu];
      if (buf.size() < p.offset + p.cell->len) buf.resize(p.offset + p.cell->len);
      std::copy_n(p.cell->payload.begin(), p.cell->len, buf.begin() + p.offset);
    }
    for (const Completion& d : dones) {
      auto it = bytes.find(d.pdu);
      EXPECT_TRUE(it != bytes.end()) << "completion for unknown pdu";
      if (it == bytes.end()) continue;
      EXPECT_EQ(it->second.size(), d.wire_bytes);
      // Strip the trailer and verify the CRC: end-to-end correctness.
      const auto t = decode_trailer(it->second);
      EXPECT_TRUE(t.has_value());
      if (!t || t->pdu_len + kTrailerBytes != d.wire_bytes) {
        ADD_FAILURE() << "bad trailer for pdu " << d.pdu;
        bytes.erase(it);
        continue;
      }
      std::vector<std::uint8_t> pdu(it->second.begin(),
                                    it->second.begin() + t->pdu_len);
      EXPECT_EQ(Crc32::of(pdu), t->crc);
      completed.push_back(std::move(pdu));
      bytes.erase(it);
    }
  }
  return completed;
}

void expect_same_multiset(std::vector<std::vector<std::uint8_t>> got,
                          std::vector<std::vector<std::uint8_t>> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

class RouterParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RouterParamTest, InOrderDelivery) {
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 10; ++i) pdus.push_back(pattern(500 + i * 77, i));
  const auto lanes = stripe(pdus);
  // In-order = strict round robin.
  std::vector<LanedCell> seq;
  std::array<std::size_t, kLanes> pos{};
  bool more = true;
  while (more) {
    more = false;
    for (int l = 0; l < kLanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (pos[li] < lanes[li].size()) {
        seq.push_back({l, lanes[li][pos[li]++]});
        more = true;
      }
    }
  }
  // NOTE: strict per-slot round robin is not quite arrival order for
  // mixed-size PDUs, but it is a valid bounded-skew interleaving.
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, seq), pdus);
  EXPECT_EQ(r->dropped(), 0u);
}

TEST_P(RouterParamTest, RandomSkewManySeeds) {
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 20; ++i) pdus.push_back(pattern(1 + i * 137 % 3000, i));
  const auto lanes = stripe(pdus);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto r = make_router(GetParam());
    expect_same_multiset(run_router(*r, random_merge(lanes, seed)), pdus);
    EXPECT_EQ(r->inflight(), 0u) << "leftover state, seed " << seed;
  }
}

TEST_P(RouterParamTest, ShortPdusUnderSkew) {
  // PDUs of 1..5 cells are the hard case for the quad strategy (lanes with
  // zero cells must be skipped via bounds).
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 40; ++i) {
    pdus.push_back(pattern((i % 5) * kCellPayload + 10, i));
  }
  const auto lanes = stripe(pdus);
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    auto r = make_router(GetParam());
    expect_same_multiset(run_router(*r, random_merge(lanes, seed)), pdus);
  }
}

TEST_P(RouterParamTest, SingleCellPdus) {
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 10; ++i) pdus.push_back(pattern(20, i));
  const auto lanes = stripe(pdus);
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, random_merge(lanes, 5)), pdus);
}

TEST_P(RouterParamTest, AdversarialLaneZeroLast) {
  // All of lanes 1-3 arrive before any lane-0 cell: maximal skew against
  // the lane that anchors attribution.
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 8; ++i) pdus.push_back(pattern(300 + i * 50, i));
  const auto lanes = stripe(pdus);
  std::vector<LanedCell> seq;
  for (int l = 1; l < kLanes; ++l) {
    for (const Cell& c : lanes[static_cast<std::size_t>(l)]) seq.push_back({l, c});
  }
  for (const Cell& c : lanes[0]) seq.push_back({0, c});
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, seq), pdus);
}

TEST_P(RouterParamTest, LargePduAcrossManyCells) {
  std::vector<std::vector<std::uint8_t>> pdus{pattern(64 * 1024, 1)};
  const auto lanes = stripe(pdus);
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, random_merge(lanes, 9)), pdus);
}

INSTANTIATE_TEST_SUITE_P(Strategies, RouterParamTest,
                         ::testing::Values("seq", "quad"));

TEST(SeqRouter, DuplicateCellDropped) {
  const auto pdu = pattern(500, 1);
  const auto cells = segment(pdu, 7, 0);
  SeqRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(0, cells[0], pl, dn);
  r.on_cell(0, cells[0], pl, dn);  // duplicate
  EXPECT_EQ(r.dropped(), 1u);
}

TEST(SeqRouter, PduIdReuseAfterCompletionIsSafe) {
  // 16-bit pdu_id wraps; reuse after completion must start fresh state.
  const auto p1 = pattern(100, 1);
  const auto p2 = pattern(200, 2);
  SeqRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  for (const Cell& c : segment(p1, 7, 42)) r.on_cell(0, c, pl, dn);
  ASSERT_EQ(dn.size(), 1u);
  const auto key1 = dn[0].pdu;
  pl.clear();
  dn.clear();
  for (const Cell& c : segment(p2, 7, 42)) r.on_cell(0, c, pl, dn);
  ASSERT_EQ(dn.size(), 1u);
  EXPECT_NE(dn[0].pdu, key1);  // fresh key despite the same pdu_id
}

TEST(QuadRouter, MakeRouterUnknownStrategyThrows) {
  EXPECT_THROW(make_router("nope"), std::invalid_argument);
}

TEST(QuadRouter, NoSequenceNumbersAreConsulted) {
  // Strategy B must work even when seq/pdu_id fields are zeroed (they are
  // not on the wire in this strategy).
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 12; ++i) pdus.push_back(pattern(100 + i * 333, i));
  auto lanes = stripe(pdus);
  std::array<std::vector<Cell>, kLanes> scrubbed;
  for (int l = 0; l < kLanes; ++l) {
    for (Cell c : lanes[static_cast<std::size_t>(l)]) {
      const std::uint16_t keep_seq = c.seq;  // only used to compute lane above
      (void)keep_seq;
      c.pdu_id = 0;
      c.seq = 0;
      scrubbed[static_cast<std::size_t>(l)].push_back(c);
    }
  }
  for (std::uint64_t seed = 7; seed < 17; ++seed) {
    QuadRouter r;
    expect_same_multiset(run_router(r, random_merge(scrubbed, seed)), pdus);
  }
}

TEST(QuadRouter, TwoCellPduLastCellArrivesFirst) {
  // The circular-looking case: the 2-cell PDU's LAST cell (lane 1) arrives
  // before its BOM (lane 0). Attribution of the lane-1 cell needs a lower
  // bound proving the PDU has a second cell — which only the lane-0 cell
  // provides (it carries no LAST flag, so ncells >= 2).
  const auto pdu = pattern(50, 1);  // wire 58 -> 2 cells
  auto lanes = stripe({pdu});
  ASSERT_EQ(lanes[0].size(), 1u);
  ASSERT_EQ(lanes[1].size(), 1u);
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(1, lanes[1][0], pl, dn);  // LAST cell first
  EXPECT_TRUE(pl.empty()) << "must wait: the PDU might have had one cell";
  r.on_cell(0, lanes[0][0], pl, dn);
  EXPECT_EQ(pl.size(), 2u);
  ASSERT_EQ(dn.size(), 1u);
  EXPECT_EQ(dn[0].wire_bytes, 58u);
}

TEST(QuadRouter, ThreeCellPduMiddleCellUnlocksLaneTwo) {
  // ncells = 3: the LAST cell is on lane 2 and cannot attribute until the
  // lane-1 cell (no LAST flag => ncells >= 3) has been placed.
  const auto pdu = pattern(100, 2);  // wire 108 -> 3 cells
  auto lanes = stripe({pdu});
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(2, lanes[2][0], pl, dn);  // LAST first: ambiguous
  EXPECT_TRUE(pl.empty());
  r.on_cell(0, lanes[0][0], pl, dn);  // min_cells -> 2: still ambiguous
  EXPECT_EQ(pl.size(), 1u);
  EXPECT_EQ(r.queued(), 1u);
  r.on_cell(1, lanes[1][0], pl, dn);  // min_cells -> 3: unlocks lane 2
  EXPECT_EQ(pl.size(), 3u);
  EXPECT_EQ(dn.size(), 1u);
  EXPECT_EQ(r.queued(), 0u);
}

TEST(QuadRouter, ShortPduSkippedOnHigherLanesViaExactCount) {
  // PDU A has 1 cell (lane 0 only); PDU B has 5. B's lane-1 cell can reach
  // the router before A's single cell; it must be attributed to B, not A —
  // provable only once A's LAST cell fixes ncells(A) = 1.
  const auto a = pattern(20, 3);   // 1 cell
  const auto b = pattern(200, 4);  // 5 cells
  auto lanes = stripe({a, b});
  ASSERT_EQ(lanes[1].size(), 1u);  // only B has a lane-1 cell
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(1, lanes[1][0], pl, dn);  // B's cell 1, before anything else
  EXPECT_TRUE(pl.empty()) << "could belong to A if A had 2+ cells";
  r.on_cell(0, lanes[0][0], pl, dn);  // A's only cell: LAST -> ncells(A)=1
  EXPECT_EQ(dn.size(), 1u);  // A completes
  // Lane 1 now skips A, but its head is STILL ambiguous: it could belong
  // to B or (if B were single-cell too) to a later PDU. Only B's lane-0
  // cell (no LAST flag -> ncells(B) >= 2) resolves it.
  EXPECT_EQ(pl.size(), 1u);
  EXPECT_EQ(r.queued(), 1u);
  r.on_cell(0, lanes[0][1], pl, dn);  // B's cell 0
  EXPECT_EQ(pl.size(), 3u) << "B's queued lane-1 cell resolves";
  EXPECT_EQ(r.queued(), 0u);
  // Feed the rest of B.
  r.on_cell(2, lanes[2][0], pl, dn);
  r.on_cell(3, lanes[3][0], pl, dn);
  r.on_cell(0, lanes[0][2], pl, dn);
  ASSERT_EQ(dn.size(), 2u);
  EXPECT_EQ(dn[1].wire_bytes, 208u);
  EXPECT_EQ(r.inflight(), 0u);
}

TEST(QuadRouter, QueuedCellsAwaitAttribution) {
  // A lane-1 cell arriving before anything else must wait (ambiguous).
  const auto pdu = pattern(200, 3);  // 5 cells
  auto lanes = stripe({pdu});
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(1, lanes[1][0], pl, dn);
  EXPECT_TRUE(pl.empty());
  EXPECT_EQ(r.queued(), 1u);
  // Lane 0's first cell resolves it.
  r.on_cell(0, lanes[0][0], pl, dn);
  EXPECT_EQ(pl.size(), 2u);
  EXPECT_EQ(r.queued(), 0u);
}

/// QuadRouter as it was before a cell arriving on an empty lane was placed
/// unqueued: every cell joins its lane's queue, then drain() runs to a
/// fixed point. It counts the cases a comparison against it must cover.
/// Its placements hold a copy of their cell, so they stay readable however
/// long the router under test keeps its own cells.
class QueueEverythingQuadRouter {
 public:
  struct Placed {
    std::uint64_t pdu = 0;
    std::uint32_t offset = 0;
    Cell cell;
  };

  struct Counts {
    std::uint64_t placed_at_once = 0;  // empty lane, placed in its own call
    std::uint64_t waited = 0;          // empty lane, ambiguous: stays queued
    std::uint64_t queued_behind = 0;   // nonempty lane: stays queued
    std::uint64_t drained = 0;         // queued earlier, placed by drain()
    std::uint64_t skips = 0;           // lane moved past a PDU it lacks
  };

  void on_cell(int lane, const Cell& c, std::vector<Placed>& place,
               std::vector<Completion>& done) {
    const bool was_empty = lanes_[lane].queue.empty();
    const std::size_t placed = place.size();
    lanes_[lane].queue.push_back(c);
    drain(place, done);
    const bool still_queued = !lanes_[lane].queue.empty();
    const bool self_placed = was_empty && !still_queued;
    counts.placed_at_once += self_placed ? 1 : 0;
    counts.waited += was_empty && still_queued ? 1 : 0;
    counts.queued_behind += was_empty ? 0 : 1;
    counts.drained += place.size() - placed - (self_placed ? 1 : 0);
  }

  [[nodiscard]] std::size_t inflight() const {
    std::size_t n = 0;
    for (const Pdu& p : ring_) {
      if (!p.completed && p.received > 0) ++n;
    }
    return n;
  }

  [[nodiscard]] std::size_t queued() const {
    std::size_t n = 0;
    for (const Lane& l : lanes_) n += l.queue.size();
    return n;
  }

  std::uint64_t purge() {
    std::uint64_t abandoned = 0;
    for (const Pdu& p : ring_) {
      if (!p.completed && p.received > 0) {
        ++abandoned;
        dropped_ += p.received;
      }
    }
    std::uint64_t next = 0;
    for (const Lane& l : lanes_) next = std::max(next, l.pdu);
    if (!ring_.empty()) next = std::max(next, base_ + ring_.size() - 1);
    ++next;
    for (Lane& l : lanes_) {
      dropped_ += l.queue.size();
      l.queue.clear();
      l.pdu = next;
      l.in_lane = 0;
    }
    ring_.clear();
    base_ = next;
    return abandoned;
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  Counts counts;

 private:
  struct Pdu {
    std::uint32_t received = 0;
    std::uint32_t ncells = 0;
    std::uint32_t min_cells = 1;
    std::uint32_t max_cells = ~0u;
    std::uint32_t wire_bytes = 0;
    bool completed = false;
  };
  struct Lane {
    std::deque<Cell> queue;
    std::uint64_t pdu = 0;
    std::uint32_t in_lane = 0;
  };

  Pdu& pdu_state(std::uint64_t idx) {
    while (idx - base_ >= ring_.size()) ring_.emplace_back();
    return ring_[idx - base_];
  }

  void place_cell(int lane, const Cell& c, std::uint64_t pdu_idx,
                  std::uint32_t seq, std::vector<Placed>& place,
                  std::vector<Completion>& done) {
    Pdu& p = pdu_state(pdu_idx);
    ++p.received;
    p.min_cells = std::max(p.min_cells, seq + 1);
    if (c.last_cell()) {
      p.ncells = seq + 1;
      p.min_cells = std::max(p.min_cells, p.ncells);
      p.max_cells = std::min(p.max_cells, p.ncells);
      p.wire_bytes = seq * kCellPayload + c.len;
    } else {
      p.min_cells = std::max(p.min_cells, seq + 2);
    }
    if (c.lane_eom()) {
      p.max_cells = std::min(p.max_cells, seq + kLanes);
    } else {
      p.min_cells = std::max(p.min_cells, seq + kLanes + 1);
    }
    place.push_back({pdu_idx, seq * kCellPayload, c});
    if (p.ncells != 0 && p.received == p.ncells) {
      done.push_back({pdu_idx, p.wire_bytes});
      p.completed = true;
    }
    Lane& l = lanes_[lane];
    if (c.lane_eom()) {
      l.pdu = pdu_idx + 1;
      l.in_lane = 0;
    } else {
      l.in_lane = seq / kLanes + 1;
    }
    while (!ring_.empty()) {
      if (!ring_.front().completed) break;
      bool referenced = false;
      for (const Lane& ln : lanes_) {
        if (ln.pdu <= base_) referenced = true;
      }
      if (referenced) break;
      ring_.pop_front();
      ++base_;
    }
  }

  void drain(std::vector<Placed>& place, std::vector<Completion>& done) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int lane = 0; lane < kLanes; ++lane) {
        Lane& l = lanes_[lane];
        while (!l.queue.empty()) {
          const Cell head = l.queue.front();
          if (l.in_lane > 0) {
            l.queue.pop_front();
            place_cell(lane, head, l.pdu,
                       l.in_lane * kLanes + static_cast<std::uint32_t>(lane),
                       place, done);
            progress = true;
            continue;
          }
          if (lane == 0) {
            l.queue.pop_front();
            place_cell(lane, head, l.pdu, 0, place, done);
            progress = true;
            continue;
          }
          const Pdu& p = pdu_state(l.pdu);
          if (p.min_cells > static_cast<std::uint32_t>(lane)) {
            l.queue.pop_front();
            place_cell(lane, head, l.pdu, static_cast<std::uint32_t>(lane),
                       place, done);
            progress = true;
          } else if (p.max_cells <= static_cast<std::uint32_t>(lane)) {
            ++l.pdu;
            ++counts.skips;
            progress = true;
          } else {
            break;
          }
        }
      }
    }
  }

  std::deque<Pdu> ring_;
  std::uint64_t base_ = 0;
  Lane lanes_[kLanes];
  std::uint64_t dropped_ = 0;
};

TEST(QuadRouter, MatchesQueueEverythingReferenceUnderRandomSkew) {
  // Each seed stripes a run of 1- to 40-cell PDUs (short ones skip the
  // higher lanes) and merges the lanes at random, keeping per-lane order,
  // with per-seed lane weights so that some lanes run far ahead. Now and
  // then both routers purge mid-run, so their PDU keys afterwards depend
  // on the whole ring. Every placement and completion must match, in
  // order. The payload bytes are compared through each placement's cell
  // pointer after on_cell() has returned, so a sanitized build catches a
  // drained cell the router freed too early.
  const auto same_placement = [](const Placement& a,
                                 const QueueEverythingQuadRouter::Placed& b) {
    return a.pdu == b.pdu && a.offset == b.offset && a.cell->seq == b.cell.seq &&
           a.cell->len == b.cell.len && a.cell->payload == b.cell.payload;
  };
  const auto same_completion = [](const Completion& a, const Completion& b) {
    return a.pdu == b.pdu && a.wire_bytes == b.wire_bytes;
  };
  constexpr std::uint64_t kSeeds = 3000;
  std::uint64_t placements = 0;
  std::uint64_t completions = 0;
  std::uint64_t purges = 0;
  QueueEverythingQuadRouter::Counts counts;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> pdus(1 + rng.below(8));
    for (auto& pdu : pdus) {
      const auto cells = static_cast<std::uint32_t>(rng.between(1, 40));
      // Bytes that, with the trailer, fill exactly `cells` cells.
      const std::uint32_t lo =
          cells == 1 ? 1 : (cells - 1) * kCellPayload - kTrailerBytes + 1;
      const std::uint32_t hi = cells * kCellPayload - kTrailerBytes;
      pdu = pattern(rng.between(lo, hi), static_cast<std::uint32_t>(seed));
    }
    const auto lanes = stripe(pdus);
    std::array<std::uint64_t, kLanes> weight{};
    for (auto& w : weight) w = rng.between(1, 8);
    QuadRouter got_router;
    QueueEverythingQuadRouter want_router;
    std::array<std::size_t, kLanes> pos{};
    std::size_t left = 0;
    for (const auto& l : lanes) left += l.size();
    const bool purge_midway = rng.chance(0.1);
    const std::size_t purge_at = rng.below(left);
    std::vector<Placement> got_pl;
    std::vector<QueueEverythingQuadRouter::Placed> want_pl;
    std::vector<Completion> got_dn, want_dn;
    for (std::size_t step = 0; left > 0; ++step) {
      if (purge_midway && step == purge_at) {
        ASSERT_EQ(got_router.purge(), want_router.purge()) << "seed " << seed;
        ASSERT_EQ(got_router.dropped(), want_router.dropped()) << "seed " << seed;
        ++purges;
      }
      std::uint64_t pick = rng.below(weight[0] + weight[1] + weight[2] + weight[3]);
      int lane = 0;
      while (pick >= weight[static_cast<std::size_t>(lane)]) {
        pick -= weight[static_cast<std::size_t>(lane)];
        ++lane;
      }
      const auto li = static_cast<std::size_t>(lane);
      if (pos[li] == lanes[li].size()) continue;
      const Cell& c = lanes[li][pos[li]++];
      --left;
      got_pl.clear();
      want_pl.clear();
      got_dn.clear();
      want_dn.clear();
      got_router.on_cell(lane, c, got_pl, got_dn);
      want_router.on_cell(lane, c, want_pl, want_dn);
      ASSERT_TRUE(std::equal(got_pl.begin(), got_pl.end(), want_pl.begin(),
                             want_pl.end(), same_placement))
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(std::equal(got_dn.begin(), got_dn.end(), want_dn.begin(),
                             want_dn.end(), same_completion))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(got_router.queued(), want_router.queued()) << "seed " << seed;
      ASSERT_EQ(got_router.inflight(), want_router.inflight()) << "seed " << seed;
      placements += got_pl.size();
      completions += got_dn.size();
    }
    ASSERT_EQ(got_router.purge(), want_router.purge()) << "seed " << seed;
    ASSERT_EQ(got_router.dropped(), want_router.dropped()) << "seed " << seed;
    const auto& w = want_router.counts;
    counts.placed_at_once += w.placed_at_once;
    counts.waited += w.waited;
    counts.queued_behind += w.queued_behind;
    counts.drained += w.drained;
    counts.skips += w.skips;
  }
  EXPECT_GT(placements, 250000u);
  EXPECT_GT(completions, 12000u);
  EXPECT_GT(purges, 250u);
  EXPECT_GT(counts.placed_at_once, 150000u);
  EXPECT_GT(counts.waited, 10000u);
  EXPECT_GT(counts.queued_behind, 50000u);
  EXPECT_GT(counts.drained, 50000u);
  EXPECT_GT(counts.skips, 1000u);
}

}  // namespace
}  // namespace osiris::atm
