// Kernel-side ADC supervision — the OS half of the §3.2 protection story.
//
// The board firmware rejects each individual malformed descriptor (see
// board/tx.cc, board/rx.cc), but rejection alone leaves an adversarial
// tenant free to keep flooding: every garbage chain still costs firmware
// time, and a tenant that legitimately formats its descriptors can still
// starve neighbours by sheer volume. The AdcSupervisor is the kernel
// policy layer on top of the firmware mechanism: it subscribes to both
// processors' typed violation sinks, meters each registered channel
// against a violation budget and a consumption budget (transmit bytes per
// polling window), and QUARANTINES a channel that exceeds either —
// transmit queue detached, VCIs cut off with attributed drops — without
// perturbing any other channel. Quarantine is not teardown: the
// application keeps its memory and may be inspected; only its reach into
// the shared adaptor is revoked. Adc::close() (or a fresh Adc on the same
// pair) lifts the state.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "adc/adc.h"
#include "board/board.h"
#include "board/rx.h"
#include "board/tx.h"
#include "flow/table.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace osiris::adc {

class AdcSupervisor {
 public:
  /// Per-channel limits. Zero disables the corresponding check.
  struct Budget {
    std::uint64_t max_violations = 8;        ///< typed rejections, lifetime
    std::uint64_t max_tx_bytes_per_poll = 0; ///< consumed tx bytes / window
    // QoS knobs installed on the board at watch() time (the kernel is the
    // policy layer; the firmware DRR/token-bucket is the mechanism).
    std::uint32_t tx_weight = 1;             ///< DRR weight (min 1)
    double tx_bytes_per_sec = 0.0;           ///< token-bucket rate; 0 = none
    std::uint64_t tx_burst_bytes = 0;        ///< bucket depth (0 -> 1 PDU-ish)
  };

  /// Installs this supervisor as both processors' violation sink. One
  /// supervisor per adaptor; later sinks would displace it.
  AdcSupervisor(sim::Engine& eng, board::TxProcessor& txp,
                board::RxProcessor& rxp);
  ~AdcSupervisor();

  AdcSupervisor(const AdcSupervisor&) = delete;
  AdcSupervisor& operator=(const AdcSupervisor&) = delete;

  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Registers `a`'s channel for supervision under `b`. The Adc must
  /// outlive the supervisor.
  void watch(Adc& a, Budget b);

  /// Starts the consumption poll: every `period`, each watched channel's
  /// transmit bytes over the window are checked against its budget.
  /// Polling stops past `until` (bounded schedules).
  void start(sim::Duration period, sim::Tick until);

  /// Cuts the channel off immediately (also invoked internally when a
  /// budget trips): transmit queue detached, every VCI quarantined with
  /// attributed drops. Idempotent; other channels are untouched.
  void quarantine(int pair_index);

  [[nodiscard]] bool quarantined(int pair_index) const;
  /// Typed violations charged to the channel since watch().
  [[nodiscard]] std::uint64_t violations(int pair_index) const;
  /// All violations seen, by type (both processors).
  [[nodiscard]] std::uint64_t seen(board::Violation v) const {
    return seen_[static_cast<std::size_t>(v)];
  }

 private:
  struct Channel {
    Adc* adc = nullptr;
    Budget budget;
    std::uint64_t violations = 0;
    bool quarantined = false;
    std::uint64_t tx_bytes_base = 0;  // window baseline
  };

  void on_violation(board::Violation v, int channel);
  void poll();

  sim::Engine* eng_;
  board::TxProcessor* txp_;
  board::RxProcessor* rxp_;
  sim::Trace* trace_ = nullptr;
  // Watched channels keyed by pair index, in the same flat table as the
  // receive path's VCI state: the violation sink fires from inside
  // firmware cell handling, so its per-violation lookup should not chase
  // tree or chain pointers.
  flow::FlowTable<Channel> channels_;
  std::array<std::uint64_t, static_cast<std::size_t>(board::Violation::kCount)>
      seen_{};
  bool polling_ = false;
  sim::Duration poll_period_ = 0;
  sim::Tick poll_until_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace osiris::adc
