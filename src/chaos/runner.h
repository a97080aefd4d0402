// ChaosRunner: executes a ChaosSchedule against a fresh two-node testbed
// while driving mixed traffic — a reliable tagged ARQ stream, a
// best-effort datagram stream, RPC over one ADC pair, a raw ADC message
// stream over a second pair (where tenant misbehaviour injects), and QoS
// knobs on the transmit scheduler — then drains and checks invariants:
// the observability audit's conservation identities, zero leaked frames
// and descriptors on the kernel drivers, exactly-once in-order ARQ
// delivery, and convergence of every watchdog reset. Any violated
// invariant becomes one human-readable string in Report::violations, and
// the whole run folds into a fingerprint that must be bit-identical across
// repeated runs and across record/replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "sim/time.h"

namespace osiris::chaos {

struct RunnerConfig {
  sim::Tick horizon = sim::ms(25);  // traffic injection window

  // Reliable tagged stream, node a -> node b on a bound ARQ VCI.
  int arq_msgs = 80;
  std::uint32_t arq_bytes = 256;
  std::uint32_t arq_max_retries = 25;
  sim::Duration arq_rto = sim::ms(1);
  sim::Duration arq_max_rto = sim::ms(8);

  // Best-effort datagram stream on an unbound VCI through the same
  // endpoints (passthrough path).
  int dgram_msgs = 40;
  std::uint32_t dgram_bytes = 512;

  // RPC over ADC pair 1 (clean tenant), plus a raw message stream over
  // ADC pair 2 (the tenant planes are attached there).
  int rpc_calls = 12;
  sim::Duration rpc_timeout = sim::ms(3);
  std::uint32_t rpc_retries = 3;
  int adc_msgs = 24;
  std::uint32_t adc_bytes = 384;

  // Watchdogs run on both nodes from t=0 until horizon + drain_tail; the
  // tail must comfortably cover the worst ARQ retransmission span so a
  // late firmware wedge is still rescued before the retry budget burns.
  sim::Duration wd_period = sim::ms(1);
  sim::Duration wd_deadline = sim::ms(3);
  sim::Duration drain_tail = sim::sec(1);

  // Extra kernel-path VCIs mapped on both nodes before traffic starts
  // (none carry traffic). Drives the receive processors' flow tables to
  // realistic occupancy so resets, quarantines and buffer-exhaustion
  // recovery are exercised against a grown, rehashed table rather than a
  // handful of entries.
  int bulk_vcis = 0;

  bool collect_postmortem = false;  // assemble Report::postmortem
};

struct Report {
  /// One string per violated invariant; empty = the run survived.
  std::vector<std::string> violations;
  /// FNV-1a over delivery tags, counters, resets and fault activity.
  /// Identical for every run of the same schedule, including a replay of
  /// its serialized form.
  std::uint64_t fingerprint = 0;

  std::uint64_t arq_sent = 0, arq_delivered = 0;
  std::uint64_t arq_retransmissions = 0, arq_resyncs = 0;
  std::uint64_t dgram_sent = 0, dgram_delivered = 0;
  std::uint64_t adc_sent = 0, adc_delivered = 0;
  /// Frames that surfaced on the wrong VCI (misrouting made visible).
  std::uint64_t foreign = 0;
  std::uint64_t rpc_issued = 0, rpc_completed = 0, rpc_timeouts = 0;
  std::uint64_t resets_a = 0, resets_b = 0;
  std::uint64_t faults_fired = 0;  // all four planes, lifetime
  std::uint64_t events = 0;        // engine events the run dispatched
  sim::Tick end = 0;
  /// One sample per adaptor reset that a later reliable delivery closed:
  /// microseconds from force_reset to the next in-order ARQ delivery.
  std::vector<double> recovery_us;
  std::string postmortem;  // fault summaries, stats, trace tails

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Builds the testbed, applies `sch`, drives traffic, drains, audits.
Report run_schedule(const Schedule& sch, const RunnerConfig& cfg = {});

}  // namespace osiris::chaos
