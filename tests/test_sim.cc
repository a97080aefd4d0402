// Unit tests for the discrete-event engine, resources, RNG and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace osiris::sim {
namespace {

// Counts its live copies in `*live`, so a test can see whether an event's
// callable was destroyed, and how often.
struct Tally {
  explicit Tally(int* live) : live(live) { ++*live; }
  Tally(const Tally& o) : live(o.live) { ++*live; }
  Tally& operator=(const Tally&) = delete;
  ~Tally() { --*live; }
  int* live;
};

TEST(Time, Conversions) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1000000u);
  EXPECT_EQ(ms(1), 1000000000u);
  EXPECT_DOUBLE_EQ(to_us(us(123)), 123.0);
  EXPECT_EQ(cycle(25e6), 40000u);  // 40 ns at 25 MHz
  EXPECT_EQ(cycles(10, 25e6), 400000u);
}

TEST(Time, Mbps) {
  // 100 bytes in 1 us = 800 Mbps.
  EXPECT_DOUBLE_EQ(mbps(100, us(1)), 800.0);
  EXPECT_DOUBLE_EQ(mbps(100, 0), 0.0);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(us(3), [&] { order.push_back(3); });
  eng.schedule(us(1), [&] { order.push_back(1); });
  eng.schedule(us(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), us(3));
  EXPECT_EQ(eng.dispatched(), 3u);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(us(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine eng;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) eng.schedule(us(1), chain);
  };
  eng.schedule(0, chain);
  eng.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), us(4));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule(us(1), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(0, [] {}), std::logic_error);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule(us(1), [&] { ++fired; });
  eng.schedule(us(10), [&] { ++fired; });
  eng.run_until(us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), us(5));
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ThrowingEventLeavesTheEngineUsable) {
  // The throw propagates out of run(); the thrower's callable is destroyed
  // and its node recycled, and a second run() fires what was queued behind
  // it and what came after.
  Engine eng;
  int live = 0;
  const Tally tally(&live);
  std::vector<int> order;
  eng.schedule_at(us(1), [tally] { throw std::runtime_error("event failed"); });
  eng.schedule_at(us(1), [&] { order.push_back(1); });
  eng.schedule_at(us(2), [&] { order.push_back(2); });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(eng.now(), us(1));
  EXPECT_EQ(eng.dispatched(), 1u);
  EXPECT_EQ(eng.pending(), 2u);

  eng.schedule_at(us(3), [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.dispatched(), 4u);
  EXPECT_EQ(eng.pending(), 0u);

  // Throwing again and again reuses one node: none is lost to the throws.
  for (int i = 0; i < 1000; ++i) {
    eng.schedule(us(1), [] { throw std::runtime_error("event failed"); });
    EXPECT_THROW(eng.run(), std::runtime_error);
  }
  EXPECT_EQ(eng.stats().arena_chunks, 1u);
  EXPECT_EQ(eng.dispatched(), 1004u);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, BoxedCaptureRunsOnceAndIsDestroyedOnce) {
  // A capture larger than the inline buffer is boxed on the heap. The
  // scheduled one runs once, the cancelled one never, and the engine
  // destroys each exactly once.
  Engine eng;
  int live = 0;
  int runs = 0;
  const Tally tally(&live);
  const std::array<char, Event::kInlineBytes> pad{};
  eng.schedule(us(1), [&runs, pad, tally] { runs += 1 + pad[0]; });
  TimerHandle h =
      eng.schedule_timer(us(2), [&runs, pad, tally] { runs += 100 + pad[0]; });
  EXPECT_EQ(eng.stats().boxed_events, 2u);
  EXPECT_EQ(live, 3);  // `tally` and the two boxed copies

  EXPECT_TRUE(eng.cancel(h));
  EXPECT_EQ(live, 2);
  eng.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(eng.dispatched(), 1u);
}

TEST(StepTick, FiresWholeTickIncludingSameTickFollowups) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(100, [&] {
    order.push_back(1);
    // Scheduled *during* the batch, at the same tick: still part of it.
    eng.schedule_at(100, [&] { order.push_back(3); });
  });
  eng.schedule_at(100, [&] { order.push_back(2); });
  eng.schedule_at(200, [&] { order.push_back(4); });

  EXPECT_EQ(eng.step_tick(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 100u);
  EXPECT_EQ(eng.step_tick(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(eng.step_tick(), 0u);
}

TEST(TryAdvanceTo, RefusesWhenALiveEventIsDueAtTheTick) {
  Engine eng;
  bool fired = false;
  eng.schedule_at(us(2), [&] { fired = true; });
  // Due exactly at t: that event holds a lower sequence number than
  // anything scheduled at t from here, so it must run first.
  EXPECT_FALSE(eng.try_advance_to(us(2)));
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_TRUE(eng.try_advance_to(us(2) - 1));
  EXPECT_EQ(eng.now(), us(2) - 1);
  EXPECT_THROW(eng.try_advance_to(us(1)), std::logic_error);
  eng.run();
  EXPECT_TRUE(fired);
}

TEST(TryAdvanceTo, PassesCancelledTimers) {
  Engine eng;
  bool fired = false;
  TimerHandle h = eng.schedule_timer(us(1), [&] { fired = true; });
  eng.schedule_at(us(5), [] {});
  ASSERT_TRUE(eng.cancel(h));
  EXPECT_TRUE(eng.try_advance_to(us(3)));
  EXPECT_EQ(eng.now(), us(3));
  EXPECT_FALSE(eng.try_advance_to(us(5)));
  EXPECT_EQ(eng.now(), us(3));
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.now(), us(5));
}

TEST(TryAdvanceTo, StopsAtARunUntilDeadline) {
  Engine eng;
  std::vector<bool> got;
  eng.schedule_at(us(1), [&] {
    got.push_back(eng.try_advance_to(us(4)));      // the deadline itself
    got.push_back(eng.try_advance_to(us(4) + 1));  // past it
  });
  eng.run_until(us(4));
  EXPECT_EQ(got, (std::vector<bool>{true, false}));
  EXPECT_EQ(eng.now(), us(4));
  // The deadline ends with its run_until(); run() sets none.
  eng.schedule_at(us(5), [&] { got.push_back(eng.try_advance_to(us(50))); });
  eng.run();
  EXPECT_EQ(got, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(eng.now(), us(50));
}

TEST(Resource, SerializesReservations) {
  Engine eng;
  Resource r(eng, "r");
  EXPECT_EQ(r.reserve(us(10)), us(10));
  EXPECT_EQ(r.reserve(us(5)), us(15));  // queued behind the first
  EXPECT_EQ(r.free_at(), us(15));
  EXPECT_TRUE(r.busy());
}

TEST(Resource, ReserveAtRespectsFrom) {
  Engine eng;
  Resource r(eng, "r");
  EXPECT_EQ(r.reserve_at(us(100), us(10)), us(110));
  // An earlier request fits in the gap BEFORE the future booking — the
  // calendar models per-transaction bus arbitration, not call order.
  EXPECT_EQ(r.reserve_at(us(50), us(10)), us(60));
  // A request that does not fit in the gap queues behind.
  EXPECT_EQ(r.reserve_at(us(55), us(50)), us(160));
  EXPECT_EQ(r.busy_total(), us(70));
  EXPECT_EQ(r.reservations(), 3u);
}

TEST(Resource, CalendarFillsExactGaps) {
  Engine eng;
  Resource r(eng, "r");
  r.reserve_at(us(10), us(10));  // [10,20)
  r.reserve_at(us(40), us(10));  // [40,50)
  EXPECT_EQ(r.reserve_at(us(20), us(20)), us(40));  // exact fit [20,40)
  EXPECT_EQ(r.reserve_at(us(0), us(10)), us(10));   // exact fit [0,10)
  EXPECT_EQ(r.reserve_at(us(0), us(5)), us(55));    // everything full to 50
}

TEST(Resource, UtilizationTracksBusyFraction) {
  Engine eng;
  Resource r(eng, "r");
  r.reserve(us(10));
  eng.schedule(us(20), [] {});
  eng.run();
  EXPECT_DOUBLE_EQ(r.utilization(), 0.5);
}

TEST(Resource, BookingInThePastThrows) {
  Engine eng;
  Resource r(eng, "r");
  eng.run_until(us(10));
  EXPECT_THROW(r.reserve_at(us(5), us(1)), std::logic_error);
  EXPECT_THROW(r.reserve_at(us(5), 0), std::logic_error);
  EXPECT_EQ(r.reservations(), 0u);
  EXPECT_EQ(r.reserve_at(us(10), us(1)), us(11));  // now itself is fine
}

/// Reference busy calendar: a std::map of start -> end with one node per
/// reservation and no merging. The flat, merging calendar must give the
/// same answer for every booking.
class ReferenceCalendar {
 public:
  explicit ReferenceCalendar(const Engine& eng) : eng_(&eng) {}

  Tick reserve_at(Tick from, Duration hold) {
    for (auto it = busy.begin(); it != busy.end() && it->second < eng_->now();) {
      it = busy.erase(it);
    }
    Tick start = from;
    if (hold > 0) {
      auto it = busy.upper_bound(start);
      if (it != busy.begin()) {
        auto prev = std::prev(it);
        if (prev->second > start) start = prev->second;
      }
      while (it != busy.end() && it->first < start + hold) {
        start = std::max(start, it->second);
        ++it;
      }
      busy.emplace(start, start + hold);
    }
    busy_until = std::max(busy_until, start + hold);
    busy_total += hold;
    wait_total += start - from;
    ++reservations;
    return start + hold;
  }

  std::map<Tick, Tick> busy;  // start -> end
  Tick busy_until = 0;
  Duration busy_total = 0;
  Duration wait_total = 0;
  std::uint64_t reservations = 0;

 private:
  const Engine* eng_;
};

TEST(Resource, MatchesReferenceCalendarUnderRandomLoad) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Engine eng;
    Resource r(eng, "r");
    ReferenceCalendar ref(eng);
    Rng rng(seed);
    std::uint64_t gap_fills = 0;
    for (int op = 0; op < 20000; ++op) {
      const Tick now = eng.now();
      Tick from = now + rng.below(200);
      Duration hold = rng.chance(0.1) ? 0 : rng.between(1, 20);
      const std::uint64_t kind = rng.below(10);
      if (kind < 2) {
        eng.run_until(now + rng.below(200));  // prunes on the next booking
        continue;
      }
      if (kind < 5) {
        // Aim at a live gap between two reference intervals: touch its
        // left neighbour, its right one, or fill it exactly.
        std::vector<std::pair<Tick, Tick>> gaps;
        for (auto it = ref.busy.begin(); it != ref.busy.end(); ++it) {
          const auto next = std::next(it);
          if (next != ref.busy.end() && it->second >= now &&
              next->first > it->second) {
            gaps.emplace_back(it->second, next->first);
          }
        }
        if (!gaps.empty()) {
          const auto [lo, hi] = gaps[rng.below(gaps.size())];
          const Duration len = hi - lo;
          switch (rng.below(3)) {
            case 0:  // touches the left neighbour
              from = lo;
              hold = len > 1 ? rng.between(1, len - 1) : len;
              break;
            case 1:  // touches the right neighbour
              hold = len > 1 ? rng.between(1, len - 1) : len;
              from = hi - hold;
              break;
            default:  // touches both
              from = lo;
              hold = len;
              break;
          }
          ++gap_fills;
        }
      }
      ASSERT_EQ(r.reserve_at(from, hold), ref.reserve_at(from, hold))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(r.busy_total(), ref.busy_total) << "seed " << seed << " op " << op;
      ASSERT_EQ(r.wait_total(), ref.wait_total) << "seed " << seed << " op " << op;
      ASSERT_EQ(r.free_at(), ref.busy_until) << "seed " << seed << " op " << op;
      ASSERT_EQ(r.reservations(), ref.reservations) << "seed " << seed << " op " << op;
    }
    EXPECT_GT(gap_fills, 1000u) << "seed " << seed;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(Summary, Moments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

}  // namespace
}  // namespace osiris::sim
