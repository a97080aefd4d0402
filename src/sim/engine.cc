#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace osiris::sim {

Engine::Engine()
    : wheel_(kBuckets), boxed_at_ctor_(Event::boxed_allocations()) {}

Engine::~Engine() = default;  // chunks_ destroys queued events with the nodes

void Engine::grow_arena() {
  auto chunk = std::make_unique<Node[]>(kChunkNodes);
  for (std::size_t i = 0; i < kChunkNodes; ++i) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
}

void Engine::recycle(Node* n) {
  n->seq = 0;  // invalidates any outstanding TimerHandle
  n->next = free_;
  free_ = n;
}

void Engine::bucket_append(std::size_t idx, Node* n) {
  Bucket& b = wheel_[idx];
  n->next = nullptr;
  n->prev = b.tail;
  if (b.head == nullptr) {
    b.head = n;
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  } else {
    b.tail->next = n;
  }
  b.tail = n;
}

void Engine::insert_node(Node* n, Tick t) {
  if (t < now_) {
    n->ev.reset();
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  free_ = n->next;
  n->at = t;
  n->seq = ++next_seq_;
  ++size_;
  if (size_ > high_water_) high_water_ = size_;

  if (t >= base_ + kSpan) {
    far_.push_back(n);
    std::push_heap(far_.begin(), far_.end(), FarLater{});
    ++far_scheduled_;
    return;
  }
  if (t < base_ || ((t - base_) >> kWidthLog2) <= cur_bucket_) {
    // At or before the bucket currently being drained: merge into the
    // sorted run at its (at, seq) position. Equal-tick events carry the
    // largest seq so far, so they land at the end of their tick's group —
    // the FIFO contract — which for the common schedule-at-now case means
    // an O(1) append.
    const auto it = std::lower_bound(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                                     run_.end(), n, node_less);
    run_.insert(it, n);
    return;
  }
  // Only here does a node wait in a bucket: base_ <= at < base_ + kSpan
  // and its bucket lies past cur_bucket_. rewindow() spills by the same
  // rule (ensure_run() loads its bucket 0 into the run before anything
  // else runs), and a bucket leaves the wheel only as cur_bucket_ moves
  // onto it, so cancel() can tell a bucketed node by its tick alone.
  bucket_append((t - base_) >> kWidthLog2, n);
}

std::size_t Engine::next_occupied(std::size_t from) const {
  if (from >= kBuckets) return kNoBucket;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }
    if (++word >= occupied_.size()) return kNoBucket;
    bits = occupied_[word];
  }
}

void Engine::rewindow() {
  const Tick t0 = far_.front()->at;
  base_ = (t0 >> kWidthLog2) << kWidthLog2;
  cur_bucket_ = 0;
  scan_from_ = 0;
  ++rewindows_;
  const Tick limit = base_ + kSpan;
  while (!far_.empty() && far_.front()->at < limit) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    Node* n = far_.back();
    far_.pop_back();
    bucket_append((n->at - base_) >> kWidthLog2, n);
    ++spills_;
  }
}

bool Engine::ensure_run() {
  if (run_pos_ < run_.size()) return true;
  run_.clear();
  run_pos_ = 0;
  while (true) {
    const std::size_t idx = next_occupied(scan_from_);
    if (idx != kNoBucket) {
      Bucket& b = wheel_[idx];
      for (Node* n = b.head; n != nullptr;) {
        Node* next = n->next;
        run_.push_back(n);
        n = next;
      }
      b.head = b.tail = nullptr;
      occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
      // A bucket mixes direct appends with far-heap spills, so the chain
      // is not globally ordered; one sort per bucket restores (at, seq).
      if (run_.size() > 1) std::sort(run_.begin(), run_.end(), node_less);
      cur_bucket_ = idx;
      scan_from_ = idx + 1;
      return true;
    }
    if (far_.empty()) return false;
    rewindow();
  }
}

Engine::Node* Engine::purge_to_live() {
  while (ensure_run()) {
    Node* n = run_[run_pos_];
    if (n->ev) return n;
    ++run_pos_;  // cancelled tombstone: discard without advancing time
    recycle(n);
  }
  return nullptr;
}

void Engine::dispatch_front() {
  Node* n = run_[run_pos_++];
  now_ = n->at;
  ++dispatched_;
  --size_;
  n->seq = 0;  // handles to the running event are stale from here on
  // The node leaves the queue but reaches the freelist only after the call,
  // so nothing the callable schedules is built over it.
  try {
    n->ev.invoke();
  } catch (...) {
    recycle(n);
    throw;
  }
  recycle(n);
}

bool Engine::cancel(TimerHandle& h) {
  Node* n = h.node_;
  const std::uint64_t seq = h.seq_;
  h = TimerHandle{};
  if (n == nullptr || seq == 0 || n->seq != seq || !n->ev) return false;
  n->ev.reset();
  --size_;
  ++cancelled_;
  // A node in a future bucket (insert_node() says when) leaves its chain at
  // once. One already in the run or in the far heap stays queued as a
  // tombstone, seq intact so the comparators keep their strict order, and
  // the drain recycles it.
  if (n->at < base_ || n->at - base_ >= kSpan) return true;
  const std::size_t idx = (n->at - base_) >> kWidthLog2;
  if (idx <= cur_bucket_) return true;
  Bucket& b = wheel_[idx];
  (n->prev != nullptr ? n->prev->next : b.head) = n->next;
  (n->next != nullptr ? n->next->prev : b.tail) = n->prev;
  if (b.head == nullptr) occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  recycle(n);
  return true;
}

bool Engine::try_advance_to(Tick t) {
  if (t < now_) throw std::logic_error("Engine::try_advance_to: time in the past");
  if (t > deadline_) return false;
  const Node* n = peek_live();
  if (n != nullptr && n->at <= t) return false;
  now_ = t;
  return true;
}

std::size_t Engine::step_tick() {
  Node* n = peek_live();
  if (n == nullptr) return 0;
  const Tick t = n->at;
  std::size_t fired = 0;
  // The probe reads the wall clock only when attached, so the detached hot
  // path pays a single predictable branch.
  std::chrono::steady_clock::time_point t0;
  if (step_probe_ != nullptr) t0 = std::chrono::steady_clock::now();
  do {
    dispatch_front();
    ++fired;
    n = peek_live();
  } while (n != nullptr && n->at == t);
  if (step_probe_ != nullptr) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    step_probe_->record(static_cast<std::uint64_t>(ns));
  }
  return fired;
}

Tick Engine::run() {
  while (step_tick() != 0) {
  }
  return now_;
}

Tick Engine::run_until(Tick deadline) {
  // try_advance_to() must not carry an event's work past the deadline. An
  // outer run_until()'s tighter deadline still holds. (Should an event
  // throw, the deadline stays set; try_advance_to() then merely refuses
  // more often, which never changes an outcome.)
  const Tick outer = deadline_;
  deadline_ = std::min(outer, deadline);
  while (true) {
    Node* n = peek_live();
    if (n == nullptr || n->at > deadline) break;
    dispatch_front();
  }
  deadline_ = outer;
  if (now_ < deadline) now_ = deadline;
  return now_;
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.dispatched = dispatched_;
  s.cancelled = cancelled_;
  s.pending = size_;
  s.high_water = high_water_;
  s.far_scheduled = far_scheduled_;
  s.spills = spills_;
  s.rewindows = rewindows_;
  s.arena_chunks = chunks_.size();
  s.boxed_events = Event::boxed_allocations() - boxed_at_ctor_;
  return s;
}

}  // namespace osiris::sim
