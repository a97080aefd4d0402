// The simulator's one hash table. Every keyed table on the data path uses
// it: the receive processor's per-VCI demultiplexing state and in-flight
// reassemblies, SeqRouter's PDUs, the driver's partial accumulations and
// the ADC supervisor's channels (see DESIGN.md §13).
//
// Open addressing over one power-of-two array of {key, state, value}
// slots: 64-bit keys hashed with the splitmix64 finalizer, linear probing,
// tombstone erase (an insert reuses the first tombstone on its probe
// path), and a full rehash on growth. The tables stay small — a host has
// "potentially hundreds of paths" (§3.1), and no benchmark workload holds
// more than ten VCIs — so a full rehash never costs a cell anything that
// matters.
//
// Iteration walks the slots in array order: a deterministic function of
// the operation history (keys, erases and when rehashes happened), so two
// runs of one event sequence iterate identically. Callers that need an
// order independent of history (none today) must sort.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace osiris::flow {

template <class V>
class FlowTable {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots in the array; 0 until the first insert.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    Slot& s = slots_[probe(key)];
    return s.state == kFull ? &s.value : nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlowTable*>(this)->find(key);
  }

  /// Finds or default-constructs the value for `key`; second = freshly
  /// made. May rehash, which moves every value: pointers obtained before
  /// the call are stale after it.
  std::pair<V*, bool> insert(std::uint64_t key) {
    maybe_grow();
    Slot& s = slots_[probe(key)];
    if (s.state == kFull) return {&s.value, false};
    if (s.state == kEmpty) ++used_;
    s.state = kFull;
    s.key = key;
    ++size_;
    return {&s.value, true};
  }

  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    Slot& s = slots_[probe(key)];
    if (s.state != kFull) return false;
    kill(s);
    return true;
  }

  void clear() {
    slots_.clear();
    size_ = used_ = 0;
  }

  /// f(key, value) in slot order. Erasing the CURRENT key from inside f is
  /// safe (a tombstone moves no other slot); inserting is not.
  template <class F>
  void for_each(F&& f) {
    for (Slot& s : slots_) {
      if (s.state == kFull) f(s.key, s.value);
    }
  }

  /// Erases every entry where pred(key, value) is true, in slot order;
  /// returns how many.
  template <class Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t n = 0;
    for (Slot& s : slots_) {
      if (s.state == kFull && pred(s.key, s.value)) {
        kill(s);
        ++n;
      }
    }
    return n;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0, kFull = 1, kTomb = 2;

  // A slot that is not full always holds a default V (a rehash makes
  // fresh slots, an erase resets the value), so insert assigns none.
  struct Slot {
    std::uint64_t key = 0;
    std::uint8_t state = kEmpty;
    V value{};
  };

  static std::uint64_t mix(std::uint64_t k) {
    // splitmix64 finalizer: strong enough that packed (vci, sub) keys
    // spread even when only a few low/high bits vary.
    k ^= k >> 30;
    k *= 0xBF58476D1CE4E5B9ull;
    k ^= k >> 27;
    k *= 0x94D049BB133111EBull;
    k ^= k >> 31;
    return k;
  }

  /// Index of `key` if present, else of the slot an insert should use
  /// (the first tombstone on the probe path, or the empty slot ending it).
  std::size_t probe(std::uint64_t key) const {
    assert(!slots_.empty());
    const std::size_t mask = slots_.size() - 1;
    std::size_t tomb = slots_.size();  // sentinel: none seen
    for (std::size_t i = static_cast<std::size_t>(mix(key)) & mask;;
         i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.state == kFull && s.key == key) return i;
      if (s.state == kEmpty) return tomb != slots_.size() ? tomb : i;
      if (s.state == kTomb && tomb == slots_.size()) tomb = i;
    }
  }

  void kill(Slot& s) {
    s.state = kTomb;
    s.value = V{};
    --size_;
  }

  void maybe_grow() {
    if (slots_.empty()) {
      rehash(16);
      return;
    }
    // Tombstones count against the load factor so probe chains stay short.
    if ((used_ + 1) * 10 > slots_.size() * 7) {
      std::size_t cap = slots_.size();
      // Grow only if live entries justify it; otherwise a same-size
      // rehash just clears the tombstones.
      while ((size_ + 1) * 10 > cap * 5) cap *= 2;
      rehash(cap);
    }
  }

  /// Moves every live entry, in old slot order, into `cap` fresh slots.
  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    used_ = size_;
    const std::size_t mask = cap - 1;
    for (Slot& o : old) {
      if (o.state != kFull) continue;
      std::size_t j = static_cast<std::size_t>(mix(o.key)) & mask;
      while (slots_[j].state == kFull) j = (j + 1) & mask;
      slots_[j].key = o.key;
      slots_[j].state = kFull;
      slots_[j].value = std::move(o.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live entries + tombstones
};

}  // namespace osiris::flow
