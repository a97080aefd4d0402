// Serial resources with calendar-based arbitration.
//
// A Resource models a unit that serves one request at a time: the
// TURBOchannel, a host CPU, an on-board microprocessor, a link sublink.
// Requests reserve the resource for a duration starting no earlier than a
// given time; the reservation occupies the EARLIEST free interval of
// sufficient length. Keeping a calendar of busy intervals (rather than a
// single FIFO horizon) matters because actors compute their own timelines:
// the host driver may book a dual-port-RAM access far in the future (after
// a long compute phase) while the board's next DMA — issued later in call
// order but earlier in simulated time — must still slot into the gap
// before it, as it would on real hardware.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace osiris::sim {

class Resource {
 public:
  Resource(Engine& eng, std::string name) : eng_(&eng), name_(std::move(name)) {}

  /// Reserves the resource for `hold` ticks starting no earlier than now.
  /// Returns the completion time of this reservation.
  Tick reserve(Duration hold) { return reserve_at(eng_->now(), hold); }

  /// Reserves the earliest interval of length `hold` starting at or after
  /// `from`. Returns the completion time. Throws std::logic_error when
  /// `from` is in the past.
  Tick reserve_at(Tick from, Duration hold) {
    if (from < eng_->now()) {
      throw std::logic_error("Resource::reserve_at: time in the past");
    }
    prune();
    Tick start = from;
    if (hold > 0) {
      // Walk intervals overlapping or following `start` until a gap fits.
      auto it = std::upper_bound(
          busy_.begin(), busy_.end(), start,
          [](Tick t, const Interval& iv) { return t < iv.start; });
      if (it != busy_.begin() && std::prev(it)->end > start) {
        start = std::prev(it)->end;
      }
      while (it != busy_.end() && it->start < start + hold) {
        start = std::max(start, it->end);
        ++it;
      }
      // Everything before `it` ends by `start`; `it` begins at or after
      // start + hold. Join whichever neighbours touch, else insert.
      const Tick end = start + hold;
      const bool left = it != busy_.begin() && std::prev(it)->end == start;
      const bool right = it != busy_.end() && it->start == end;
      if (left && right) {
        std::prev(it)->end = it->end;
        busy_.erase(it);
      } else if (left) {
        std::prev(it)->end = end;
      } else if (right) {
        it->start = start;
      } else {
        busy_.insert(it, Interval{start, end});
      }
    }
    busy_until_ = std::max(busy_until_, start + hold);
    busy_total_ += hold;
    wait_total_ += start - from;
    ++reservations_;
    return start + hold;
  }

  /// Latest completion time of any reservation (a new request at that time
  /// is guaranteed to start immediately).
  [[nodiscard]] Tick free_at() const { return busy_until_; }

  /// True if any reservation extends past the current instant.
  [[nodiscard]] bool busy() const { return busy_until_ > eng_->now(); }

  /// Cumulative busy time across all reservations.
  [[nodiscard]] Duration busy_total() const { return busy_total_; }

  /// Cumulative time reservations spent waiting behind earlier ones.
  [[nodiscard]] Duration wait_total() const { return wait_total_; }

  /// Number of reservations made.
  [[nodiscard]] std::uint64_t reservations() const { return reservations_; }

  /// Fraction of time [0, now] the resource has been busy.
  [[nodiscard]] double utilization() const {
    const Tick t = eng_->now();
    return t == 0 ? 0.0 : static_cast<double>(busy_total_) / static_cast<double>(t);
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Forgets accumulated statistics (not the busy calendar).
  void reset_stats() {
    busy_total_ = 0;
    wait_total_ = 0;
    reservations_ = 0;
  }

 private:
  /// A busy interval [start, end).
  struct Interval {
    Tick start;
    Tick end;
  };

  /// Drops intervals that ended before the current simulated time: new
  /// requests always carry from >= now (reserve_at checks), so nothing can
  /// ever be booked there again. Ends ascend with starts, so the dead
  /// intervals form a prefix.
  void prune() {
    const Tick now = eng_->now();
    busy_.erase(busy_.begin(),
                std::find_if(busy_.begin(), busy_.end(),
                             [now](const Interval& iv) { return iv.end >= now; }));
  }

  Engine* eng_;
  std::string name_;
  /// The busy calendar: sorted by start, disjoint and never touching
  /// (touching intervals are merged on insert), so a gap search steps over
  /// real gaps only. Merging cannot change a result: a gap of length zero
  /// never fits a reservation with hold > 0, so the earliest fit depends
  /// only on the set of busy instants, which merging preserves.
  std::vector<Interval> busy_;
  Tick busy_until_ = 0;
  Duration busy_total_ = 0;
  Duration wait_total_ = 0;
  std::uint64_t reservations_ = 0;
};

}  // namespace osiris::sim
