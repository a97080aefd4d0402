// Engine microbenchmark: the calendar-queue scheduler against the seed's
// std::priority_queue + std::function design, on a workload shaped like the
// real experiments — dense near-future event chains (cell times, firmware
// costs), same-tick bursts (interrupt fan-out), and millisecond-scale
// protocol timers that are almost always cancelled (ARQ retransmits, RPC
// timeouts, the driver watchdog).
//
// Both engines run the *identical* logical workload, so three things can be
// checked at once:
//   * throughput: events dispatched per wall-clock second, and the speedup
//     of the calendar engine over the baseline;
//   * determinism: two runs of the calendar engine produce bit-identical
//     dispatch-order hashes;
//   * equivalence: the baseline's dispatch-order hash matches the calendar
//     engine's (cancelled timers fire as guarded no-ops in the baseline and
//     are simply absent in the calendar engine; neither contributes to the
//     hash).
//
// Results land in BENCH_engine.json; ci.sh compares events_per_sec against
// the checked-in floor in bench/engine_events_per_sec.floor.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "sim/engine.h"
#include "sim/time.h"

namespace {

using osiris::sim::Duration;
using osiris::sim::Tick;

constexpr int kChains = 64;
constexpr std::uint64_t kTargetFires = 1'000'000;  // chain firings per run

// Chain step delays cycle through a mix of sub-cell and multi-cell gaps so
// events land across many calendar buckets.
constexpr Duration kDelays[] = {osiris::sim::ns(50), osiris::sim::ns(700),
                                osiris::sim::ns(90), osiris::sim::ns(1300),
                                osiris::sim::ns(250)};
constexpr std::size_t kNumDelays = sizeof(kDelays) / sizeof(kDelays[0]);

/// Shared workload state: termination counter plus an FNV-1a hash over the
/// dispatch order of every event that does work.
struct Mix {
  std::uint64_t fired = 0;   // chain firings (drives termination)
  std::uint64_t timers = 0;  // far-future timers scheduled so far
  std::uint64_t hash = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    hash ^= x;
    hash *= 1099511628211ull;
  }
};

/// The seed's scheduler, reproduced: a std::priority_queue of std::function
/// events ordered by (tick, seq). Cancellation is the old generation-guard
/// pattern — dead timers stay queued and fire as no-ops.
class LegacyEngine {
 public:
  using Fn = std::function<void()>;

  [[nodiscard]] Tick now() const { return now_; }
  void schedule(Duration d, Fn fn) { schedule_at(now_ + d, std::move(fn)); }
  void schedule_at(Tick t, Fn fn) {
    q_.push(Item{t, next_seq_++, std::move(fn)});
  }
  Tick run() {
    while (!q_.empty()) {
      Item it = std::move(const_cast<Item&>(q_.top()));
      q_.pop();
      now_ = it.at;
      ++dispatched_;
      it.fn();
    }
    return now_;
  }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

 private:
  struct Item {
    Tick at;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::priority_queue<Item, std::vector<Item>, Later> q_;
};

// One chain step. Every 7th step emits a burst of four same-tick events;
// every 11th schedules a 2 ms timer, cancelled 4 times out of 5 (the ARQ /
// RPC pattern: the ack usually arrives first).
void legacy_chain(LegacyEngine& eng, Mix& mx, std::vector<char>& dead,
                  int chain, std::uint64_t count) {
  mx.mix(eng.now());
  mx.mix(static_cast<std::uint64_t>(chain));
  ++mx.fired;
  if (count % 7 == 0) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      eng.schedule(0, [&mx, chain, i] {
        mx.mix(static_cast<std::uint64_t>(chain) * 16 + i);
      });
    }
  }
  if (count % 11 == 0) {
    const std::uint64_t id = mx.timers++;
    dead.push_back(count % 5 != 0 ? 1 : 0);
    eng.schedule(osiris::sim::ms(2), [&mx, &dead, id] {
      if (dead[id] == 0) mx.mix(0x5eedull + id);
    });
  }
  if (mx.fired < kTargetFires) {
    const Duration d =
        kDelays[(static_cast<std::uint64_t>(chain) + count) % kNumDelays];
    eng.schedule(d, [&eng, &mx, &dead, chain, count] {
      legacy_chain(eng, mx, dead, chain, count + 1);
    });
  }
}

void fast_chain(osiris::sim::Engine& eng, Mix& mx, int chain,
                std::uint64_t count) {
  mx.mix(eng.now());
  mx.mix(static_cast<std::uint64_t>(chain));
  ++mx.fired;
  if (count % 7 == 0) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      eng.schedule(0, [&mx, chain, i] {
        mx.mix(static_cast<std::uint64_t>(chain) * 16 + i);
      });
    }
  }
  if (count % 11 == 0) {
    const std::uint64_t id = mx.timers++;
    osiris::sim::TimerHandle h = eng.schedule_timer(
        osiris::sim::ms(2), [&mx, id] { mx.mix(0x5eedull + id); });
    if (count % 5 != 0) eng.cancel(h);
  }
  if (mx.fired < kTargetFires) {
    const Duration d =
        kDelays[(static_cast<std::uint64_t>(chain) + count) % kNumDelays];
    eng.schedule(d, [&eng, &mx, chain, count] {
      fast_chain(eng, mx, chain, count + 1);
    });
  }
}

struct RunResult {
  double secs = 0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  osiris::sim::Engine::Stats stats;
};

RunResult run_legacy() {
  LegacyEngine eng;
  Mix mx;
  std::vector<char> dead;
  dead.reserve(kTargetFires / 11 + kChains);
  const benchjson::WallTimer t;
  for (int c = 0; c < kChains; ++c) {
    const Tick start = osiris::sim::ns(10) * static_cast<Tick>(c + 1);
    eng.schedule_at(start, [&eng, &mx, &dead, c] {
      legacy_chain(eng, mx, dead, c, 0);
    });
  }
  eng.run();
  return RunResult{t.seconds(), eng.dispatched(), mx.hash, {}};
}

RunResult run_fast() {
  osiris::sim::Engine eng;
  Mix mx;
  const benchjson::WallTimer t;
  for (int c = 0; c < kChains; ++c) {
    const Tick start = osiris::sim::ns(10) * static_cast<Tick>(c + 1);
    eng.schedule_at(start,
                    [&eng, &mx, c] { fast_chain(eng, mx, c, 0); });
  }
  eng.run();
  return RunResult{t.seconds(), eng.dispatched(), mx.hash, eng.stats()};
}

}  // namespace

int main() {
  std::printf(
      "OSIRIS engine microbench: calendar queue vs priority_queue baseline\n"
      "workload: %d chains, %llu chain firings, same-tick bursts, 2 ms\n"
      "timers 80%% cancelled\n\n",
      kChains, static_cast<unsigned long long>(kTargetFires));

  const RunResult legacy = run_legacy();
  const RunResult fast1 = run_fast();
  const RunResult fast2 = run_fast();

  const double base_eps =
      static_cast<double>(legacy.events) / legacy.secs;
  const double fast_eps = static_cast<double>(fast1.events) / fast1.secs;
  const double speedup = fast_eps / base_eps;
  const bool determinism_ok = fast1.hash == fast2.hash;
  const bool baseline_match = legacy.hash == fast1.hash;

  std::printf("  baseline : %9.0f events/s (%llu events, %.3f s)\n", base_eps,
              static_cast<unsigned long long>(legacy.events), legacy.secs);
  std::printf("  calendar : %9.0f events/s (%llu events, %.3f s)\n", fast_eps,
              static_cast<unsigned long long>(fast1.events), fast1.secs);
  std::printf("  speedup  : %.2fx\n", speedup);
  std::printf("  determinism: %s   baseline-order match: %s\n",
              determinism_ok ? "ok" : "MISMATCH",
              baseline_match ? "ok" : "MISMATCH");

  const osiris::sim::Engine::Stats& st = fast1.stats;
  std::printf(
      "  engine: high_water=%zu far=%llu spills=%llu rewindows=%llu "
      "arena_chunks=%llu boxed=%llu cancelled=%llu\n",
      st.high_water, static_cast<unsigned long long>(st.far_scheduled),
      static_cast<unsigned long long>(st.spills),
      static_cast<unsigned long long>(st.rewindows),
      static_cast<unsigned long long>(st.arena_chunks),
      static_cast<unsigned long long>(st.boxed_events),
      static_cast<unsigned long long>(st.cancelled));

  benchjson::Writer w;
  w.open_object();
  w.field("chains", static_cast<std::uint64_t>(kChains));
  w.field("target_fires", kTargetFires);
  w.field("baseline_wall_seconds", legacy.secs);
  w.field("baseline_events", legacy.events);
  w.field("baseline_events_per_sec", base_eps);
  benchjson::perf_fields(w, /*setup_seconds=*/0, fast1.secs, fast1.events);
  w.field("speedup", speedup);
  w.field("determinism_ok", determinism_ok);
  w.field("baseline_order_match", baseline_match);
  w.field("dispatch_hash", fast1.hash);
  w.field("high_water", static_cast<std::uint64_t>(st.high_water));
  w.field("far_scheduled", st.far_scheduled);
  w.field("spills", st.spills);
  w.field("rewindows", st.rewindows);
  w.field("arena_chunks", st.arena_chunks);
  w.field("boxed_events", st.boxed_events);
  w.field("cancelled", st.cancelled);
  w.close_object();
  w.dump("engine");

  if (!determinism_ok || !baseline_match) {
    std::fprintf(stderr, "FAIL: dispatch order not reproducible\n");
    return 1;
  }
  return 0;
}
