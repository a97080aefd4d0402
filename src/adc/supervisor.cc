#include "adc/supervisor.h"

namespace osiris::adc {

AdcSupervisor::AdcSupervisor(sim::Engine& eng, board::TxProcessor& txp,
                             board::RxProcessor& rxp)
    : eng_(&eng), txp_(&txp), rxp_(&rxp) {
  txp_->set_violation_sink([this](board::Violation, int ch) {
    on_violation(ch);
  });
  rxp_->set_violation_sink([this](board::Violation, int ch) {
    on_violation(ch);
  });
}

AdcSupervisor::~AdcSupervisor() {
  *alive_ = false;
  // The sinks capture `this`; leaving them installed would dangle.
  txp_->set_violation_sink(nullptr);
  rxp_->set_violation_sink(nullptr);
}

void AdcSupervisor::watch(Adc& a) {
  *channels_.insert(static_cast<std::uint64_t>(a.pair())).first =
      Channel{.adc = &a};
}

void AdcSupervisor::on_violation(int channel) {
  Channel* chp = channels_.find(static_cast<std::uint64_t>(channel));
  if (chp == nullptr) return;  // kernel queue, or an unwatched pair
  Channel& ch = *chp;
  ++ch.violations;
  if (!ch.quarantined && ch.violations == kMaxViolations + 1) {
    // The sink is invoked synchronously from inside a firmware step, with
    // the processor's own state (the PDU being reassembled, the chain
    // being rejected) live on the stack. Quarantining here would mutate
    // that state out from under it; the kernel reacts on its next
    // scheduling boundary instead, exactly as a real OS handles an
    // interrupt raised by firmware it cannot preempt.
    eng_->schedule(0, [this, channel, alive = alive_] {
      if (*alive) quarantine(channel);
    });
  }
}

void AdcSupervisor::quarantine(int pair_index) {
  Channel* chp = channels_.find(static_cast<std::uint64_t>(pair_index));
  if (chp == nullptr || chp->quarantined) return;
  Channel& ch = *chp;
  ch.quarantined = true;
  txp_->remove_queue(pair_index);
  for (const atm::Vci vci : ch.adc->vcis()) rxp_->quarantine_vci(vci);
}

bool AdcSupervisor::quarantined(int pair_index) const {
  const Channel* ch = channels_.find(static_cast<std::uint64_t>(pair_index));
  return ch != nullptr && ch->quarantined;
}

std::uint64_t AdcSupervisor::violations(int pair_index) const {
  const Channel* ch = channels_.find(static_cast<std::uint64_t>(pair_index));
  return ch == nullptr ? 0 : ch->violations;
}

}  // namespace osiris::adc
