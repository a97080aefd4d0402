#include "adc/supervisor.h"

namespace osiris::adc {

AdcSupervisor::AdcSupervisor(sim::Engine& eng, board::TxProcessor& txp,
                             board::RxProcessor& rxp)
    : eng_(&eng), txp_(&txp), rxp_(&rxp) {
  txp_->set_violation_sink([this](board::Violation v, int ch) {
    on_violation(v, ch);
  });
  rxp_->set_violation_sink([this](board::Violation v, int ch) {
    on_violation(v, ch);
  });
}

AdcSupervisor::~AdcSupervisor() {
  *alive_ = false;
  // The sinks capture `this`; leaving them installed would dangle.
  txp_->set_violation_sink(nullptr);
  rxp_->set_violation_sink(nullptr);
}

void AdcSupervisor::watch(Adc& a, Budget b) {
  Channel ch;
  ch.adc = &a;
  ch.budget = b;
  ch.tx_bytes_base = txp_->channel_bytes(a.pair());
  *channels_.insert(static_cast<std::uint64_t>(a.pair())).first = std::move(ch);
  // Push the QoS half of the budget down into the firmware: weight and
  // rate limit key on the channel.
  txp_->set_queue_weight(a.pair(), b.tx_weight);
  if (b.tx_bytes_per_sec > 0.0) {
    const std::uint64_t burst =
        b.tx_burst_bytes != 0 ? b.tx_burst_bytes : std::uint64_t{16 * 1024};
    txp_->set_rate_limit(a.pair(), b.tx_bytes_per_sec, burst);
  }
}

void AdcSupervisor::on_violation(board::Violation v, int channel) {
  ++seen_[static_cast<std::size_t>(v)];
  Channel* chp = channels_.find(static_cast<std::uint64_t>(channel));
  if (chp == nullptr) return;  // kernel queue, or an unwatched pair
  Channel& ch = *chp;
  ++ch.violations;
  sim::trace_event(trace_, eng_->now(), "sup", board::violation_name(v),
                   static_cast<std::uint64_t>(channel), ch.violations);
  if (!ch.quarantined && ch.budget.max_violations != 0 &&
      ch.violations == ch.budget.max_violations + 1) {
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
  sim::trace_event(trace_, eng_->now(), "sup", "quarantine",
                   static_cast<std::uint64_t>(pair_index), ch.violations);
}

bool AdcSupervisor::quarantined(int pair_index) const {
  const Channel* ch = channels_.find(static_cast<std::uint64_t>(pair_index));
  return ch != nullptr && ch->quarantined;
}

std::uint64_t AdcSupervisor::violations(int pair_index) const {
  const Channel* ch = channels_.find(static_cast<std::uint64_t>(pair_index));
  return ch == nullptr ? 0 : ch->violations;
}

void AdcSupervisor::start(sim::Duration period, sim::Tick until) {
  poll_period_ = period;
  poll_until_ = until;
  if (!polling_) {
    polling_ = true;
    eng_->schedule(0, [this, alive = alive_] {
      if (*alive) poll();
    });
  }
}

void AdcSupervisor::poll() {
  if (!polling_) return;
  if (eng_->now() >= poll_until_) {
    polling_ = false;
    return;
  }
  channels_.for_each([this](std::uint64_t key, Channel& ch) {
    const int pair = static_cast<int>(key);
    if (ch.quarantined) return;
    const std::uint64_t tx_now = txp_->channel_bytes(pair);
    const std::uint64_t tx_delta = tx_now - ch.tx_bytes_base;
    ch.tx_bytes_base = tx_now;
    if (ch.budget.max_tx_bytes_per_poll != 0 &&
        tx_delta > ch.budget.max_tx_bytes_per_poll) {
      sim::trace_event(trace_, eng_->now(), "sup", "over_budget",
                       static_cast<std::uint64_t>(pair), tx_delta);
      quarantine(pair);
    }
  });
  eng_->schedule(poll_period_, [this, alive = alive_] {
    if (*alive) poll();
  });
}

}  // namespace osiris::adc
