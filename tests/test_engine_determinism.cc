// Determinism and edge-case coverage for the calendar-queue engine.
//
// The engine's contract is exact: events fire in (tick, schedule-sequence)
// order, cancelled timers never fire, and a whole-system run — tx, rx,
// wire loss, injected faults, watchdog — replays bit-identically. The
// calendar internals (bucket wrap, far-heap spill, window re-basing,
// cancelled timers unlinked at once or left as tombstones) must be
// invisible through that contract; these tests poke each mechanism and
// check the contract held.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "proto/stack.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace osiris {
namespace {

// ------------------------------------------------------ calendar mechanics

TEST(EngineCalendar, ScheduleAtNowPreservesFifo) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule(0, [&order, i] { order.push_back(i); });
  }
  // An event scheduled at the current tick *from inside* an event at that
  // tick still runs this pass, after everything already queued.
  eng.schedule(0, [&] {
    eng.schedule(0, [&order] { order.push_back(100); });
  });
  eng.run();
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(order.back(), 100);
}

TEST(EngineCalendar, BucketWrapBeyondWindowKeepsTimeOrder) {
  // The wheel spans ~268 us; delays straddling several windows force both
  // bucket wrap-around and window advances. Interleave short and long
  // delays so insertion order fights time order.
  sim::Engine eng;
  std::vector<sim::Tick> at;
  for (int i = 0; i < 200; ++i) {
    const sim::Duration d =
        (i % 2 == 0) ? sim::us(3.0 * i) : sim::us(900.0 - 4.0 * i);
    eng.schedule(d, [&at, &eng] { at.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(at.size(), 200u);
  for (std::size_t i = 1; i < at.size(); ++i) EXPECT_LE(at[i - 1], at[i]);
  EXPECT_GE(eng.stats().rewindows, 1u);
}

TEST(EngineCalendar, FarFutureSpillsPreserveOrder) {
  // Millisecond-scale timers take the overflow heap and spill into the
  // wheel as the window advances; dispatch order must stay (at, seq).
  sim::Engine eng;
  std::vector<std::pair<sim::Tick, int>> fired;
  std::uint64_t lcg = 42;
  for (int i = 0; i < 300; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const sim::Duration d = (lcg >> 33) % sim::ms(8);
    eng.schedule(d, [&fired, &eng, i] { fired.emplace_back(eng.now(), i); });
  }
  eng.run();
  ASSERT_EQ(fired.size(), 300u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
  }
  const sim::Engine::Stats st = eng.stats();
  EXPECT_GE(st.far_scheduled, 1u);
  EXPECT_GE(st.spills, 1u);
  EXPECT_EQ(st.dispatched, 300u);
}

TEST(EngineCalendar, EqualTickFifoSpansWheelAndFarHeap) {
  // Events landing on one tick from different structures (far heap first,
  // wheel later) still fire in scheduling order.
  sim::Engine eng;
  const sim::Tick t = sim::ms(3);
  std::vector<int> order;
  eng.schedule_at(t, [&order] { order.push_back(0); });  // far heap
  eng.schedule_at(t, [&order] { order.push_back(1); });  // far heap
  eng.run_until(sim::ms(2.9));                           // window advances
  eng.schedule_at(t, [&order] { order.push_back(2); });  // wheel
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(EngineCalendar, CancelSemantics) {
  sim::Engine eng;
  int fires = 0;

  // Default-constructed handle: harmless no-op.
  sim::TimerHandle empty;
  EXPECT_FALSE(eng.cancel(empty));

  // Cancel before firing: true once, then stale.
  sim::TimerHandle h = eng.schedule_timer(sim::us(1), [&] { ++fires; });
  sim::TimerHandle dup = h;
  EXPECT_TRUE(eng.cancel(h));
  EXPECT_FALSE(eng.cancel(h));    // handle was cleared
  EXPECT_FALSE(eng.cancel(dup));  // copy is stale too
  EXPECT_EQ(eng.pending(), 0u);

  // Cancel after firing: stale.
  sim::TimerHandle h2 = eng.schedule_timer(sim::us(1), [&] { ++fires; });
  eng.run();
  EXPECT_FALSE(eng.cancel(h2));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(eng.stats().cancelled, 1u);
}

TEST(EngineCalendar, CancelledHeadDoesNotBlockRunUntil) {
  sim::Engine eng;
  int fired = 0;
  sim::TimerHandle head = eng.schedule_timer_at(sim::us(1), [&] { ++fired; });
  eng.schedule_at(sim::us(2), [&] { fired += 10; });
  EXPECT_TRUE(eng.cancel(head));
  EXPECT_EQ(eng.pending(), 1u);  // the cancelled head is not counted
  eng.run_until(sim::us(1));
  EXPECT_EQ(fired, 0);
  eng.run_until(sim::us(2));
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(eng.now(), sim::us(2));
}

TEST(EngineCalendar, CancelledTimerFreesItsNodeAtOnce) {
  // A timer cancelled while it waits in a future bucket leaves the wheel at
  // once, so arming and cancelling one over and over reuses a single node
  // instead of queueing a tombstone per cancel.
  sim::Engine eng;
  for (int i = 0; i < 100000; ++i) {
    sim::TimerHandle h = eng.schedule_timer(sim::us(1), [] {});
    ASSERT_TRUE(eng.cancel(h));
  }
  const sim::Engine::Stats st = eng.stats();
  EXPECT_EQ(st.arena_chunks, 1u);
  EXPECT_EQ(st.cancelled, 100000u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.run(), 0u);  // the emptied bucket is not visited
  EXPECT_EQ(eng.dispatched(), 0u);
}

TEST(EngineCalendar, CancelUnlinksAnywhereInABucketChain) {
  // Four timers share one bucket. Cancelling the middle, then the head,
  // then the tail leaves a chain that still fires in (tick, seq) order and
  // still takes appends.
  sim::Engine eng;
  std::vector<int> order;
  std::vector<sim::TimerHandle> h;
  for (int i = 0; i < 4; ++i) {
    h.push_back(eng.schedule_timer_at(sim::us(1) + 4 - i,
                                      [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(eng.cancel(h[1]));
  EXPECT_TRUE(eng.cancel(h[0]));
  EXPECT_TRUE(eng.cancel(h[3]));
  eng.schedule_at(sim::us(1), [&order] { order.push_back(4); });
  EXPECT_EQ(eng.pending(), 2u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{4, 2}));
  EXPECT_EQ(eng.stats().cancelled, 3u);
}

TEST(EngineCalendar, CancelFarFutureTimer) {
  // Cancellation must also reach nodes still parked in the overflow heap.
  sim::Engine eng;
  int fired = 0;
  sim::TimerHandle far = eng.schedule_timer(sim::ms(50), [&] { ++fired; });
  eng.schedule(sim::us(1), [&] { fired += 100; });
  EXPECT_TRUE(eng.cancel(far));
  eng.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(eng.now(), sim::us(1));  // drained without waiting 50 ms
}

// A randomized workload that re-derives the dispatch contract from the
// outside: every schedule call gets a test-side sequence number (mirroring
// the engine's internal one), and at the end the observed firing order
// must be exactly lexicographic (tick, seq), with each event either fired
// or successfully cancelled — never both, never neither.
struct RandomCtx {
  sim::Engine eng;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  std::uint64_t next_seq = 0;
  std::vector<std::pair<sim::Tick, std::uint64_t>> fired;
  std::vector<char> cancelled;  // by seq
  std::deque<std::pair<std::uint64_t, sim::TimerHandle>> open_timers;

  std::uint64_t rnd() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 29;
  }
  sim::Duration rnd_delay() {
    switch (rnd() % 5) {
      case 0: return 0;                              // same tick
      case 1: return rnd() % sim::us(1);             // same bucket-ish
      case 2: return rnd() % sim::us(260);           // across the wheel
      case 3: return sim::us(260) + rnd() % sim::us(40);  // window edge
      default: return rnd() % sim::ms(4);            // far heap
    }
  }
  std::uint64_t claim_seq() {
    cancelled.push_back(0);
    return next_seq++;
  }
  void record(std::uint64_t seq) { fired.emplace_back(eng.now(), seq); }
};

void driver_step(RandomCtx& ctx, int iter, std::uint64_t seq) {
  ctx.record(seq);
  for (int k = 0; k < 3; ++k) {
    const std::uint64_t s = ctx.claim_seq();
    ctx.eng.schedule(ctx.rnd_delay(), [&ctx, s] { ctx.record(s); });
  }
  if (iter % 3 == 0) {
    const std::uint64_t s = ctx.claim_seq();
    sim::TimerHandle h = ctx.eng.schedule_timer(ctx.rnd_delay(),
                                                [&ctx, s] { ctx.record(s); });
    if (ctx.rnd() % 2 == 0) {
      EXPECT_TRUE(ctx.eng.cancel(h));
      ctx.cancelled[s] = 1;
    } else {
      ctx.open_timers.emplace_back(s, h);
    }
  }
  if (iter % 2 == 0 && !ctx.open_timers.empty()) {
    auto [s, h] = ctx.open_timers.front();
    ctx.open_timers.pop_front();
    if (ctx.eng.cancel(h)) ctx.cancelled[s] = 1;  // false = already fired
  }
  if (iter < 1200) {
    const std::uint64_t s = ctx.claim_seq();
    ctx.eng.schedule(ctx.rnd() % sim::us(30),
                     [&ctx, iter, s] { driver_step(ctx, iter + 1, s); });
  }
}

TEST(EngineCalendar, RandomizedDispatchMatchesContract) {
  RandomCtx ctx;
  const std::uint64_t s0 = ctx.claim_seq();
  ctx.eng.schedule(0, [&ctx, s0] { driver_step(ctx, 0, s0); });
  ctx.eng.run();

  // Exactly lexicographic (tick, seq) order.
  for (std::size_t i = 1; i < ctx.fired.size(); ++i) {
    const auto& [pa, ps] = ctx.fired[i - 1];
    const auto& [ca, cs] = ctx.fired[i];
    ASSERT_TRUE(pa < ca || (pa == ca && ps < cs))
        << "out of order at index " << i;
  }

  // Every scheduled event fired XOR was cancelled.
  std::vector<char> seen(ctx.next_seq, 0);
  for (const auto& [at, seq] : ctx.fired) {
    ASSERT_LT(seq, ctx.next_seq);
    EXPECT_EQ(seen[seq], 0) << "event " << seq << " fired twice";
    seen[seq] = 1;
    EXPECT_EQ(ctx.cancelled[seq], 0) << "cancelled event " << seq << " fired";
  }
  for (std::uint64_t s = 0; s < ctx.next_seq; ++s) {
    EXPECT_EQ(seen[s] + ctx.cancelled[s], 1) << "event " << s << " lost";
  }

  const sim::Engine::Stats st = ctx.eng.stats();
  EXPECT_EQ(st.dispatched, ctx.fired.size());
  EXPECT_GE(st.far_scheduled, 1u);  // workload reached the far heap
  EXPECT_GE(st.spills, 1u);
  EXPECT_GE(st.rewindows, 1u);
}

// --------------------------------------------------- whole-system replay

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  return h * 1099511628211ull;
}

std::uint64_t fnv_str(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) h = fnv(h, static_cast<std::uint64_t>(*s));
  return h;
}

/// One full mixed run — bidirectional traffic over a lossy wire with DMA
/// faults, lost interrupts, and the watchdog armed — reduced to a single
/// hash over the trace, the delivered bytes, and the engine counters.
std::uint64_t mixed_run_hash() {
  sim::Trace trace{1 << 14};
  fault::FaultPlane fp{0xFA177};
  fp.arm(fault::Point::kDmaError, {.probability = 0.001, .budget = 4});
  fp.arm(fault::Point::kIrqLost, {.after = 3, .budget = 2});

  NodeConfig ca = make_3000_600_config();
  ca.board.reassembly = "seq";
  ca.link.cell_loss_p = 0.002;
  ca.link.seed = 7;
  NodeConfig cb = make_3000_600_config();
  cb.board.reassembly = "seq";
  cb.trace = &trace;
  cb.faults = &fp;

  Testbed tb(ca, cb);
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);

  std::uint64_t h = 1469598103934665603ull;
  auto sink = [&h](sim::Tick at, std::uint16_t v,
                   std::vector<std::uint8_t>&& data) {
    h = fnv(h, at);
    h = fnv(h, v);
    for (const std::uint8_t b : data) h = fnv(h, b);
  };
  sa->set_sink(sink);
  sb->set_sink(sink);

  tb.b.start_watchdog(sim::ms(1), sim::ms(5), /*until=*/sim::ms(40));

  sim::Tick ta = 0;
  sim::Tick tbk = sim::us(3);
  for (std::uint32_t i = 0; i < 24; ++i) {
    const std::size_t bytes = 256 + (i * 977) % 6000;
    std::vector<std::uint8_t> payload(bytes);
    for (std::size_t j = 0; j < bytes; ++j) {
      payload[j] = static_cast<std::uint8_t>(j * 31 + i);
    }
    if (i % 3 != 2) {
      ta = sa->send(ta, vci,
                    proto::Message::from_payload(tb.a.kernel_space, payload));
    } else {
      tbk = sb->send(tbk, vci,
                     proto::Message::from_payload(tb.b.kernel_space, payload));
    }
  }
  tb.run();

  for (const sim::TraceEvent& e : trace.events()) {
    h = fnv(h, e.at);
    h = fnv_str(h, e.component);
    h = fnv_str(h, e.event);
    h = fnv(h, e.a);
    h = fnv(h, e.b);
  }
  h = fnv(h, tb.dispatched());
  h = fnv(h, tb.now());
  return h;
}

TEST(SystemDeterminism, MixedFaultWorkloadReplaysBitIdentically) {
  const std::uint64_t first = mixed_run_hash();
  const std::uint64_t second = mixed_run_hash();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 1469598103934665603ull);  // the run actually did work
}

}  // namespace
}  // namespace osiris
