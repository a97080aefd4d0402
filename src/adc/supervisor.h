// Kernel-side ADC supervision — the OS half of the §3.2 protection story.
//
// The board firmware rejects each individual malformed descriptor (see
// board/tx.cc, board/rx.cc), but rejection alone leaves an adversarial
// tenant free to keep flooding: every garbage chain still costs firmware
// time. The AdcSupervisor is the kernel policy layer on top of the
// firmware mechanism: it subscribes to both processors' typed violation
// sinks, counts each registered channel's violations against a fixed
// budget, and QUARANTINES a channel that exceeds it — transmit queue
// detached, VCIs cut off with attributed drops — without perturbing any
// other channel. Volume needs no policy here: the transmit firmware's
// per-queue deficit round robin already bounds a well-formed flooder's
// share of the link. Quarantine is not teardown: the application keeps
// its memory and may be inspected; only its reach into the shared adaptor
// is revoked. Adc::close() (or a fresh Adc on the same pair) lifts the
// state.
#pragma once

#include <cstdint>
#include <memory>

#include "adc/adc.h"
#include "board/rx.h"
#include "board/tx.h"
#include "flow/table.h"
#include "sim/engine.h"

namespace osiris::adc {

class AdcSupervisor {
 public:
  /// Typed rejections a channel may accumulate over its lifetime; the next
  /// one quarantines it.
  static constexpr std::uint64_t kMaxViolations = 8;

  /// Installs this supervisor as both processors' violation sink. One
  /// supervisor per adaptor; later sinks would displace it.
  AdcSupervisor(sim::Engine& eng, board::TxProcessor& txp,
                board::RxProcessor& rxp);
  ~AdcSupervisor();

  AdcSupervisor(const AdcSupervisor&) = delete;
  AdcSupervisor& operator=(const AdcSupervisor&) = delete;

  /// Registers `a`'s channel for supervision. The Adc must outlive the
  /// supervisor.
  void watch(Adc& a);

  /// Cuts the channel off immediately (also invoked internally when the
  /// budget trips): transmit queue detached, every VCI quarantined with
  /// attributed drops. Idempotent; other channels are untouched.
  void quarantine(int pair_index);

  [[nodiscard]] bool quarantined(int pair_index) const;
  /// Typed violations charged to the channel since watch().
  [[nodiscard]] std::uint64_t violations(int pair_index) const;

 private:
  struct Channel {
    Adc* adc = nullptr;
    std::uint64_t violations = 0;
    bool quarantined = false;
  };

  void on_violation(int channel);

  sim::Engine* eng_;
  board::TxProcessor* txp_;
  board::RxProcessor* rxp_;
  // Watched channels keyed by pair index, in the same flat table as the
  // receive path's VCI state: the violation sink fires from inside
  // firmware cell handling, so its per-violation lookup should not chase
  // tree or chain pointers.
  flow::FlowTable<Channel> channels_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace osiris::adc
