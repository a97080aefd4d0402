// Lock-free one-reader-one-writer descriptor queues (paper §2.1.1).
//
// The queue is an array of buffer descriptors plus a head and a tail
// pointer in the dual-port RAM. The head is only modified by the writer,
// the tail only by the reader; status is determined by comparing them:
//
//     head == tail                  -> empty
//     (head + 1) mod size == tail   -> full
//
// Only 32-bit load/store atomicity is assumed, so no locks are needed and
// host/board never contend. Each operation's dual-port-RAM access count is
// reported so callers can charge TURBOchannel PIO costs (host side) or
// on-board cycles (board side).
//
// A test-and-set spin-lock queue with the same interface is provided as
// the baseline design the paper argues against (see lockq.h).
#pragma once

#include <optional>

#include "dpram/dpram.h"

namespace osiris::dpram {

/// Result of a queue operation: whether it succeeded and how many 32-bit
/// dual-port-RAM accesses it performed.
struct OpResult {
  bool ok = false;
  std::uint32_t ram_accesses = 0;
};

class QueueWriter {
 public:
  QueueWriter(DualPortRam& ram, QueueLayout lay, Side side)
      : ram_(&ram), lay_(lay), side_(side) {}

  /// True if the queue has no room for another descriptor. Costs one RAM
  /// access (reads the tail; the head is cached writer-side, as the writer
  /// is its only modifier).
  [[nodiscard]] bool full() const;

  /// Pushes a descriptor. Fails (without writing) when full.
  OpResult push(const Descriptor& d);

  /// Entries currently in the queue (costs one RAM access).
  [[nodiscard]] std::uint32_t size() const;

  /// Adaptor reset: zeroes the cached head and the RAM head/tail/ctrl
  /// words, and scrubs every slot's lap seal (each word written twice, so
  /// even a stale read cannot resurrect pre-reset queue state). Both
  /// endpoints of a queue must be reset together — a cached cursor
  /// surviving a RAM zero would corrupt the fresh queue.
  void reset();

  [[nodiscard]] const QueueLayout& layout() const { return lay_; }

 private:
  DualPortRam* ram_;
  QueueLayout lay_;
  Side side_;
  std::uint32_t head_ = 0;   // writer-owned cached copy
  bool lap_odd_ = false;     // parity of the writer's current ring lap
};

class QueueReader {
 public:
  QueueReader(DualPortRam& ram, QueueLayout lay, Side side)
      : ram_(&ram), lay_(lay), side_(side) {}

  /// True if no descriptor is available (one RAM access: reads the head).
  [[nodiscard]] bool empty() const;

  /// Pops the next descriptor, or nullopt when empty.
  std::optional<Descriptor> pop(OpResult* res = nullptr);

  /// Reads the descriptor `k` entries past the tail without consuming it;
  /// nullopt if fewer than k+1 entries are queued. Used by the transmit
  /// processor to read a whole PDU chain up front while deferring the
  /// tail advance until each buffer has actually been transmitted (the
  /// tail advance is the host's transmit-completion signal, §2.1.2).
  std::optional<Descriptor> peek_at(std::uint32_t k, OpResult* res = nullptr) const;

  /// Moves the reader-side tail past `n` previously peeked descriptors at
  /// once (so subsequent peeks see fresh entries), while the RAM tail word
  /// — the host-visible completion signal — is published later, when the
  /// buffer has actually been transmitted. Returns the tail value to
  /// publish after these n entries complete.
  std::uint32_t consume(std::uint32_t n);

  /// Writes a tail value (previously returned by consume) to the RAM word.
  void publish(std::uint32_t tail_value);

  [[nodiscard]] std::uint32_t size() const;

  /// Adaptor reset: zeroes the cached tail and the RAM tail word (the
  /// matching writer's reset zeroes the head).
  void reset();

  /// Firmware-side reset: zeroes the cached tail AND all three RAM words
  /// (head/tail/ctrl). A rebooting board processor must not trust a head
  /// word published by a writer it cannot see — trusting it would replay
  /// whatever stale descriptors are still sitting in the dual-port RAM.
  /// The writer's cached head is then stale; its owner resynchronizes on
  /// its next generation check (OsirisDriver::maybe_resync).
  void reset_all();

  [[nodiscard]] const QueueLayout& layout() const { return lay_; }

 private:
  // Expected kDescLapSeal value for the entry `k` past the cached tail.
  [[nodiscard]] bool seal_expected(std::uint32_t k) const {
    const bool odd = lap_odd_ != (tail_ + k >= lay_.capacity);
    return !odd;  // even laps are sealed, odd laps (and virgin slots) not
  }

  DualPortRam* ram_;
  QueueLayout lay_;
  Side side_;
  std::uint32_t tail_ = 0;   // reader-owned cached copy
  bool lap_odd_ = false;     // parity of the lap the cached tail is on
};

}  // namespace osiris::dpram
