// Spin-lock guarded shared queue — the baseline design §2.1.1 rejects.
//
// Each half of the OSIRIS board provides a test-and-set register intended
// to guard arbitrarily complex shared structures in the dual-port RAM. The
// cost: every operation first acquires the lock, serializing host and
// board and adding lock-word traffic; under concurrency, packet delivery
// latency and CPU load suffer from contention. This implementation is kept
// so the `lockfree` paper experiment (bench/experiments.cc) can quantify
// the difference the paper's lock-free queues make.
//
// Arbitration uses a sim::Resource as the lock: an acquisition made while
// the lock is held starts when the holder releases (FIFO), exactly the
// behaviour of a fair spin-lock; the time spent spinning is reported so
// the CPU-load cost can be charged.
#pragma once

#include <optional>

#include "dpram/dpram.h"
#include "dpram/queue.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace osiris::dpram {

/// The board's test-and-set register, modelled as a FIFO resource.
class TestAndSetLock {
 public:
  TestAndSetLock(sim::Engine& eng, const char* name) : res_(eng, name) {}

  /// Acquires at `from`, holds for `critical_section`. Returns {start of
  /// critical section, release time}. Spin time = start - from.
  struct Grant {
    sim::Tick start;
    sim::Tick release;
  };
  Grant acquire_at(sim::Tick from, sim::Duration critical_section) {
    const sim::Tick release = res_.reserve_at(from, critical_section);
    return {release - critical_section, release};
  }

  [[nodiscard]] sim::Resource& resource() { return res_; }

 private:
  sim::Resource res_;
};

/// A shared circular queue in dual-port RAM in which BOTH pointers may be
/// read and written by both sides, so every operation must hold the lock.
/// Same storage layout as the lock-free queue; different discipline.
class LockedQueue {
 public:
  LockedQueue(DualPortRam& ram, QueueLayout lay, TestAndSetLock& lock)
      : ram_(&ram), lay_(lay), lock_(&lock) {}

  /// Pushes under the lock. `from` is when the caller starts trying;
  /// `access_cost` is the caller-side cost of one 32-bit RAM access (PIO
  /// for the host, on-board cycle for the firmware). Returns the release
  /// time, or nullopt (with the failed-attempt release time in *fail_at)
  /// when the queue is full.
  std::optional<sim::Tick> push(Side side, sim::Tick from,
                                sim::Duration access_cost, const Descriptor& d,
                                sim::Tick* fail_at = nullptr);

  /// Pops under the lock. Returns descriptor and sets *done to the release
  /// time; nullopt when empty.
  std::optional<Descriptor> pop(Side side, sim::Tick from,
                                sim::Duration access_cost, sim::Tick* done);

  [[nodiscard]] std::uint32_t size(Side side) const;

 private:
  DualPortRam* ram_;
  QueueLayout lay_;
  TestAndSetLock* lock_;
};

}  // namespace osiris::dpram
