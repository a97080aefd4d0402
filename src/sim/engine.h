// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of events; each event is a callback
// that fires at an absolute tick. Actors (board processors, the host CPU,
// link sublinks, ...) hold a reference to the engine and schedule their own
// continuations. Events at equal ticks fire in scheduling order (stable
// FIFO), which keeps runs fully deterministic.
//
// Every experiment funnels millions of events through this file, so the
// internals are built for throughput (see DESIGN.md §8):
//   * Event is a one-shot type-erased callable with inline small-buffer
//     storage — the common capture ("this" plus a couple of scalars) never
//     touches the heap. Each callable is built in its queue node and runs
//     there, so an event costs one construction and one call;
//   * event nodes live in a freelist-backed arena, so steady-state
//     scheduling allocates nothing;
//   * the queue is a calendar: a wheel of fixed-width tick buckets covering
//     a sliding near-future window, backed by a far-future binary heap that
//     spills into the wheel as time advances. Dispatch order is exactly
//     (tick, schedule-sequence) — identical to the old priority queue.
//   * timers scheduled through schedule_timer() return a TimerHandle and
//     can be cancelled, so retransmit/watchdog timers stop firing dead
//     generations. A timer cancelled in a future wheel bucket is unlinked
//     and its node recycled at once; only one in the bucket being drained
//     or in the far heap stays behind as a tombstone.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace osiris::sim {

/// One-shot type-erased callable with small-buffer optimization, built and
/// run in place. Unlike std::function, captures up to kInlineBytes are
/// stored inline (no heap allocation), a stored callable is never moved, and
/// invocation destroys it — an event fires once.
class Event {
 public:
  /// Inline capture budget, sized for the engine's common case: a `this`
  /// pointer plus a handful of scalars (epoch, serial, tick), with room for
  /// a small descriptor. Larger captures are boxed on the heap (and
  /// counted; see boxed_allocations()).
  static constexpr std::size_t kInlineBytes = 48;

  Event() noexcept = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Builds a callable from `f` in this empty event: inline when it fits
  /// the buffer, else boxed on the heap. If that throws, the event stays
  /// empty.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "an event is a callable taking no arguments");
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ++boxed_allocs_;
      ops_ = &kBoxedOps<D>;
    }
  }

  /// Invokes the callable where it is stored, then destroys it. One-shot:
  /// the event is empty from the start of the call, and the callable is
  /// destroyed even if it throws.
  void invoke() {
    const Ops* o = ops_;
    ops_ = nullptr;
    o->invoke_destroy(buf_);
  }

  /// Destroys the callable without invoking it; a no-op on an empty event.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Process-wide count of events whose captures were too large for the
  /// inline buffer and were heap-boxed. The engine snapshots this to meter
  /// residual allocations.
  [[nodiscard]] static std::uint64_t boxed_allocations() noexcept {
    return boxed_allocs_;
  }

 private:
  struct Ops {
    void (*invoke_destroy)(void* self);
    void (*destroy)(void* self);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self) {
        D* d = std::launder(static_cast<D*>(self));
        try {
          (*d)();
        } catch (...) {
          d->~D();
          throw;
        }
        d->~D();
      },
      [](void* self) { std::launder(static_cast<D*>(self))->~D(); },
  };

  template <typename D>
  static constexpr Ops kBoxedOps = {
      [](void* self) {
        std::unique_ptr<D> d(*std::launder(static_cast<D**>(self)));
        (*d)();
      },
      [](void* self) { delete *std::launder(static_cast<D**>(self)); },
  };

  static inline std::uint64_t boxed_allocs_ = 0;

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

namespace detail {
/// Arena-backed queue node; its event is built and run in place. Nodes are
/// never freed individually: fired and cancelled nodes return to the
/// engine's freelist for reuse.
struct EventNode {
  Tick at = 0;
  std::uint64_t seq = 0;      // unique per scheduling; 0 = fired or recycled
  EventNode* next = nullptr;  // bucket chain, or freelist
  EventNode* prev = nullptr;  // bucket chain only
  Event ev;
};
}  // namespace detail

/// Handle to a cancellable scheduled event (see Engine::schedule_timer).
/// Valid only against the engine that issued it. Cheap to copy; stale
/// handles (fired or already-cancelled events) are safe no-ops to cancel:
/// a node's sequence number is zeroed when its event starts to run or the
/// node is recycled, and a reused node takes a fresh one, so a handle never
/// matches a node's later life.
class TimerHandle {
 public:
  TimerHandle() noexcept = default;

 private:
  friend class Engine;
  TimerHandle(detail::EventNode* n, std::uint64_t s) noexcept
      : node_(n), seq_(s) {}
  detail::EventNode* node_ = nullptr;
  std::uint64_t seq_ = 0;
};

class Engine {
 public:
  /// Self-metering snapshot (see stats()).
  struct Stats {
    std::uint64_t dispatched = 0;      ///< events fired
    std::uint64_t cancelled = 0;       ///< timers cancelled before firing
    std::size_t pending = 0;           ///< live events currently queued
    std::size_t high_water = 0;        ///< max pending since construction
    std::uint64_t far_scheduled = 0;   ///< events that took the overflow heap
    std::uint64_t spills = 0;          ///< heap → wheel migrations
    std::uint64_t rewindows = 0;       ///< wheel window advances
    std::uint64_t arena_chunks = 0;    ///< node arena chunks allocated
    std::uint64_t boxed_events = 0;    ///< heap-boxed events since construction
  };

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Tick now() const { return now_; }

  /// Schedules `fn`, a callable taking no arguments, to run `delay` ticks
  /// from now. The callable is built in its queue node and runs there.
  template <typename F>
  void schedule(Duration delay, F&& fn) {
    Node* n = free_node();
    n->ev.emplace(std::forward<F>(fn));
    insert_node(n, now_ + delay);
  }

  /// Schedules `fn` at absolute time `t`. `t` must not be in the past.
  template <typename F>
  void schedule_at(Tick t, F&& fn) {
    Node* n = free_node();
    n->ev.emplace(std::forward<F>(fn));
    insert_node(n, t);
  }

  /// Like schedule()/schedule_at(), but returns a handle the caller can
  /// pass to cancel() to stop the event from firing.
  template <typename F>
  TimerHandle schedule_timer(Duration delay, F&& fn) {
    Node* n = free_node();
    n->ev.emplace(std::forward<F>(fn));
    insert_node(n, now_ + delay);
    return TimerHandle{n, n->seq};
  }
  template <typename F>
  TimerHandle schedule_timer_at(Tick t, F&& fn) {
    Node* n = free_node();
    n->ev.emplace(std::forward<F>(fn));
    insert_node(n, t);
    return TimerHandle{n, n->seq};
  }

  /// Cancels a timer if it has not fired yet. Returns true if this call
  /// cancelled it; false for stale handles (already fired or cancelled).
  /// Clears the handle either way. The callable is destroyed at once. A
  /// timer still waiting in a future wheel bucket is unlinked and its node
  /// recycled; one already in the bucket being drained, or in the far heap,
  /// stays queued as a tombstone that the drain discards.
  bool cancel(TimerHandle& h);

  /// Runs events until the queue drains. Returns the final time.
  Tick run();

  /// Runs events with timestamps <= `deadline`; leaves later events queued.
  /// Advances now() to `deadline` even if the queue drains earlier.
  Tick run_until(Tick deadline);

  /// Advances now() to `t` without dispatching anything (no-op when `t` is
  /// in the past).
  void advance_to(Tick t) {
    if (t > now_) now_ = t;
  }

  /// Advances now() to `t` (not in the past) and returns true only when no
  /// live event is due at or before `t` and `t` lies within the deadline of
  /// any running run_until(); otherwise returns false and leaves now()
  /// alone. An event that would otherwise schedule its own continuation at
  /// `t` may run it in place when this succeeds: that continuation would
  /// take the highest sequence number so far, and with nothing live at or
  /// before `t`, it would be the next event dispatched anyway, so
  /// (tick, seq) order is kept.
  bool try_advance_to(Tick t);

  /// Batch dispatch: fires every event sharing the earliest pending tick —
  /// including events the batch itself schedules at that same tick — in
  /// one call, without re-entering the drain scan between them. Returns
  /// the number of events fired; 0 means the queue is drained. run() is
  /// built on this.
  std::size_t step_tick();

  /// Number of live (uncancelled) events currently queued.
  [[nodiscard]] std::size_t pending() const { return size_; }

  /// Total number of events dispatched since construction.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  [[nodiscard]] Stats stats() const;

  /// Attaches a wall-clock probe to step_tick(): each tick batch's dispatch
  /// time (in nanoseconds) is recorded into `h`. Null (the default)
  /// detaches the probe, leaving only a pointer test on the dispatch path.
  void set_step_probe(Log2Histogram* h) { step_probe_ = h; }

 private:
  // Calendar geometry: 4096 buckets of 2^16 ticks (65.536 ns) cover a
  // ~268 µs sliding window — wide enough that cell times (~682 ns),
  // firmware costs (tens of ns) and DMA/bus bookings land in the wheel.
  // Millisecond-scale protocol timers take the far heap, and in chaos runs
  // they are the common case: the 1 s drain tail's 0.5 ms heartbeats and
  // 1 ms watchdog ticks all lie beyond the window, so the drain re-bases
  // it about twice per simulated millisecond (DESIGN.md §8). Dispatch
  // order is (at, seq) regardless of geometry.
  static constexpr std::size_t kBucketBits = 12;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::uint32_t kWidthLog2 = 16;
  static constexpr Tick kSpan = Tick{kBuckets} << kWidthLog2;
  static constexpr std::size_t kChunkNodes = 256;
  static constexpr std::size_t kNoBucket = ~std::size_t{0};

  using Node = detail::EventNode;

  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  static bool node_less(const Node* a, const Node* b) {
    return a->at != b->at ? a->at < b->at : a->seq < b->seq;
  }
  struct FarLater {  // min-heap on (at, seq)
    bool operator()(const Node* a, const Node* b) const { return node_less(b, a); }
  };

  // The freelist's head, for a callable to be built in before
  // insert_node() takes the node: a build that throws leaves the arena as
  // it was.
  Node* free_node() {
    if (free_ == nullptr) grow_arena();
    return free_;
  }
  void grow_arena();
  void recycle(Node* n);
  // Pops `n`, the freelist's head, stamps it (t, seq) and links it. A `t`
  // in the past throws std::logic_error and leaves `n` empty on the list.
  void insert_node(Node* n, Tick t);
  void bucket_append(std::size_t idx, Node* n);
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const;
  bool ensure_run();      // makes run_[run_pos_] valid; false if drained

  // Next live node. The common case, a live node next in the run, is
  // inline; purge_to_live() discards tombstones and loads buckets.
  Node* peek_live() {
    if (run_pos_ < run_.size()) {
      Node* n = run_[run_pos_];
      if (n->ev) return n;
    }
    return purge_to_live();
  }
  Node* purge_to_live();
  void dispatch_front();  // fires run_[run_pos_] in its node
  void rewindow();        // re-bases the wheel on the far heap's minimum

  Tick now_ = 0;
  Tick deadline_ = ~Tick{0};  // the innermost running run_until()'s, else none
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t size_ = 0;        // live events queued
  std::size_t high_water_ = 0;

  // Current-bucket run: sorted by (at, seq), consumed from run_pos_.
  std::vector<Node*> run_;
  std::size_t run_pos_ = 0;

  Tick base_ = 0;               // window start, multiple of bucket width
  std::size_t cur_bucket_ = 0;  // bucket whose content lives in run_
  std::size_t scan_from_ = 1;   // first bucket the drain scan considers
  std::vector<Bucket> wheel_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};

  std::vector<Node*> far_;  // heap, FarLater

  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> chunks_;

  std::uint64_t far_scheduled_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t rewindows_ = 0;
  std::uint64_t boxed_at_ctor_ = 0;

  Log2Histogram* step_probe_ = nullptr;  // optional step_tick() wall-clock probe
};

}  // namespace osiris::sim
