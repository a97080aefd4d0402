// Central fault-injection plane.
//
// The link layer already injects wire-level faults (cell loss, bit errors,
// skew — see link/link.h). Everything above the wire, however, can also
// misbehave in a real adaptor: firmware loops wedge, DMA transfers fail,
// descriptor words get corrupted in the dual-port RAM, interrupts get lost
// on the way to the host. The FaultPlane is a seeded registry of such
// faults that every layer consults through cheap hook points: a layer
// holds a `FaultPlane*` (null by default — hooks cost one pointer compare
// when fault injection is off) and asks `fires(point)` at the moment the
// corresponding hardware would fail.
//
// A fault can be probabilistic (fires with probability p at each
// consultation), deterministic (fires on the Nth consultation — "stall
// after N descriptors"), or both, and carries a budget bounding the total
// number of firings so schedules stay finite and runs always drain.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/rng.h"

namespace osiris::fault {

/// Hook points, one per injectable hardware failure.
enum class Point : int {
  kBoardRxStall = 0,  // receive firmware loop wedges (stops servicing cells)
  kBoardTxStall,      // transmit firmware loop wedges (stops servicing PDUs)
  kBoardRxCellDrop,   // cell discarded inside the SAR/reassembly loop
  kDmaError,          // a DMA transfer fails; no bytes move
  kDescCorrupt,       // a just-written descriptor word takes a bit flip
  kDpramStale,        // a dual-port-RAM read returns the word's old value
  kIrqLost,           // an asserted interrupt never reaches the host
  kIrqSpurious,       // the host observes an interrupt with no cause
  // Adversary / crash tenant behaviours (§3.2 hardening). These model a
  // misbehaving *application* on a kernel-bypass channel, not hardware:
  // arm them on a per-tenant FaultPlane handed to that tenant's Adc.
  kAdcGarbageDescriptor,  // app posts a forged transmit descriptor
  kAdcFreeListPoison,     // app corrupts a free-queue entry it recycles
  kAdcAppDeath,           // app dies mid-send (partial chain, no EOP)
  kAdcRefillStall,        // app stops returning receive buffers
  // Overload injectors (QoS / graceful-degradation experiments): drive
  // incast, oversubscription and bursty-adversary scenarios through the
  // same chaos plane as the hardware faults above.
  kRxBufferExhausted,  // a free-queue pop comes back empty despite supply
  kTenantBurst,        // app sends a back-to-back burst instead of one PDU
  kTxQueueWedge,       // a transmit queue is skipped for one scheduler pass
  kCount,
};

[[nodiscard]] constexpr const char* point_name(Point p) {
  switch (p) {
    case Point::kBoardRxStall: return "board_rx_stall";
    case Point::kBoardTxStall: return "board_tx_stall";
    case Point::kBoardRxCellDrop: return "board_rx_cell_drop";
    case Point::kDmaError: return "dma_error";
    case Point::kDescCorrupt: return "desc_corrupt";
    case Point::kDpramStale: return "dpram_stale";
    case Point::kIrqLost: return "irq_lost";
    case Point::kIrqSpurious: return "irq_spurious";
    case Point::kAdcGarbageDescriptor: return "adc_garbage_descriptor";
    case Point::kAdcFreeListPoison: return "adc_free_list_poison";
    case Point::kAdcAppDeath: return "adc_app_death";
    case Point::kAdcRefillStall: return "adc_refill_stall";
    case Point::kRxBufferExhausted: return "rx_buffer_exhausted";
    case Point::kTenantBurst: return "tenant_burst";
    case Point::kTxQueueWedge: return "tx_queue_wedge";
    case Point::kCount: break;
  }
  return "?";
}

namespace detail {
// Every Point below kCount must map to a real name: a new enumerator whose
// point_name case was forgotten would otherwise silently report "?" in
// summaries and trend tooling.
constexpr bool all_points_named() {
  for (int i = 0; i < static_cast<int>(Point::kCount); ++i) {
    const char* n = point_name(static_cast<Point>(i));
    if (n == nullptr || (n[0] == '?' && n[1] == '\0')) return false;
  }
  return true;
}
}  // namespace detail
static_assert(detail::all_points_named(),
              "point_name: add a case for every fault::Point up to kCount");

/// When an armed fault fires.
struct FaultSpec {
  double probability = 0.0;  // chance of firing at each consultation
  std::uint64_t after = 0;   // also fire on the Nth consultation (1-based; 0 = off)
  std::uint64_t budget = ~0ull;  // maximum total firings
  // Consultation window: the spec is eligible to fire only on consultation
  // numbers n (1-based, counted since arm) with window_from <= n and, when
  // window_until != 0, n <= window_until. Outside the window the point
  // counts the consultation but never rolls the dice, so a chaos schedule
  // can align a fault with a traffic phase without changing its RNG draw
  // sequence inside the window. Zero in both fields = always eligible.
  std::uint64_t window_from = 0;
  std::uint64_t window_until = 0;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

class FaultPlane {
 public:
  explicit FaultPlane(std::uint64_t seed = 0xFA177) : rng_(seed) {}

  /// Arms (or re-arms) `p`. Per-spec consulted/fired counters restart at
  /// zero — `after` and the consultation window are relative to this arm —
  /// but the lifetime counters are preserved.
  void arm(Point p, FaultSpec spec);
  /// Clears the armed flag only: per-spec statistics and lifetime counters
  /// survive, so a scenario driver can disarm a point mid-run and still
  /// account for everything it did. Use reset_stats() for a clean slate
  /// between scenario phases.
  void disarm(Point p);
  [[nodiscard]] bool armed(Point p) const { return slot(p).armed; }
  [[nodiscard]] FaultSpec spec(Point p) const { return slot(p).spec; }

  /// The hook: rolls the dice for `p`. Returns true when the fault fires
  /// at this consultation (and counts it against the budget).
  bool fires(Point p);

  /// Flips one uniformly chosen bit of `v` (descriptor corruption).
  std::uint32_t corrupt_word(std::uint32_t v);

  /// Uniform draw in [0, bound) from the plane's stream — for hooks that
  /// need to pick *which* word/bit to damage.
  std::uint64_t roll(std::uint64_t bound) { return rng_.below(bound); }

  // Per-point statistics (relative to the last arm()).
  [[nodiscard]] std::uint64_t consulted(Point p) const { return slot(p).consulted; }
  [[nodiscard]] std::uint64_t fired(Point p) const { return slot(p).fired; }
  [[nodiscard]] std::uint64_t total_fired() const;

  // Lifetime statistics: monotone across arm()/disarm() cycles, cleared
  // only by reset_stats().
  [[nodiscard]] std::uint64_t lifetime_consulted(Point p) const {
    return slot(p).lifetime_consulted;
  }
  [[nodiscard]] std::uint64_t lifetime_fired(Point p) const {
    return slot(p).lifetime_fired;
  }

  /// Clears every statistic — per-spec and lifetime counters — while
  /// leaving armed specs armed. This is the between-phases reset a
  /// scenario driver wants; note it restarts `after`/window consultation
  /// counting for armed points, exactly like a fresh arm().
  void reset_stats();

  /// One line per armed or fired point.
  [[nodiscard]] std::string summary() const;

 private:
  struct Slot {
    FaultSpec spec;
    bool armed = false;
    std::uint64_t consulted = 0;
    std::uint64_t fired = 0;
    std::uint64_t lifetime_consulted = 0;
    std::uint64_t lifetime_fired = 0;
  };

  [[nodiscard]] Slot& slot(Point p) { return slots_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const Slot& slot(Point p) const {
    return slots_[static_cast<std::size_t>(p)];
  }

  std::array<Slot, static_cast<std::size_t>(Point::kCount)> slots_{};
  sim::Rng rng_;
};

/// Null-safe hook for layers holding an optional plane pointer.
inline bool fires(FaultPlane* plane, Point p) {
  return plane != nullptr && plane->fires(p);
}

}  // namespace osiris::fault
