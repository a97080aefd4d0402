// Transmit processor firmware.
//
// The host queues PDUs as chains of physical-buffer descriptors (last
// buffer flagged EOP) on one of up to 16 transmit queues (queue 0 belongs
// to the kernel driver, others to ADCs, §3.2). The firmware repeatedly
// picks a queue from the highest priority class with a ready PDU — within
// that class, ready queues share the link by deficit round robin over
// per-queue weights, gated by per-channel token-bucket rate limits — reads
// one PDU's descriptor chain, segments it into ATM cells — gathering
// payload from host memory with DMA reads that never cross a page boundary
// (§2.5.2) — computes the AAL trailer CRC incrementally, and clocks cells
// onto the striped link.
//
// Transmit completion is signalled by advancing the queue's tail pointer
// as each buffer finishes (no interrupt); the firmware raises an interrupt
// only when the host has marked the queue's ctrl word after finding the
// queue full, and the queue has drained to half empty (§2.1.2).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "atm/cell.h"
#include "board/board.h"
#include "dpram/dpram.h"
#include "dpram/queue.h"
#include "fault/fault.h"
#include "link/link.h"
#include "mem/phys.h"
#include "obs/spans.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/trace.h"
#include "tc/turbochannel.h"

namespace osiris::board {

class TxProcessor {
 public:
  TxProcessor(sim::Engine& eng, const BoardConfig& cfg, tc::TurboChannel& bus,
              mem::PhysicalMemory& host_mem, dpram::DualPortRam& ram,
              link::StripedLink& link);
  ~TxProcessor();

  /// Registers a transmit queue. Higher `priority` wins; within a priority
  /// class, ready queues share the link by deficit round robin over their
  /// weights (set_queue_weight; default 1). `auth` may be empty (kernel
  /// queue). A non-empty `owned_vcis` makes the firmware reject PDUs posted
  /// on any other VCI (§3.2: the OS assigns an ADC its VCIs; the board
  /// enforces them).
  void add_queue(int channel, const dpram::QueueLayout& lay, int priority,
                 PageAuth auth = nullptr,
                 std::vector<atm::Vci> owned_vcis = {});

  /// DRR weight for every attached queue of `channel` (minimum 1): a queue
  /// with weight w earns w quanta of wire-byte credit per scheduler round,
  /// so two backlogged equal-priority queues with weights 3 and 1 share the
  /// link 3:1.
  void set_queue_weight(int channel, std::uint32_t weight);

  /// Board-side token-bucket rate limit for `channel`: its queues send at
  /// most `bytes_per_sec` of wire bytes sustained, with `burst_bytes` of
  /// credit. A rate of 0 removes the limit. While the bucket is dry the
  /// channel's queues are simply ineligible — lower-priority neighbours
  /// keep the link busy (work-conserving) and the firmware re-arms itself
  /// at the refill time, so a lone rate-limited queue never wedges.
  void set_rate_limit(int channel, double bytes_per_sec,
                      std::uint64_t burst_bytes);

  /// True when `channel` currently has a token-bucket limit installed.
  [[nodiscard]] bool rate_limited(int channel) const {
    return limits_.contains(channel);
  }

  /// Detaches every queue registered for `channel`: the firmware stops
  /// scanning it, an in-progress PDU from it is abandoned, and completion
  /// publishes already scheduled for it are discarded when they fire (the
  /// dpram page may be re-registered by a reopened channel). Scheduler and
  /// rate-limiter bookkeeping (DRR deficit, token bucket, weight) is
  /// released so a reused channel starts fresh. Used by both quarantine and
  /// channel teardown.
  void remove_queue(int channel);

  /// True when `channel` has at least one attached (non-detached) queue.
  [[nodiscard]] bool queue_attached(int channel) const;

  void set_irq_sink(IrqSink sink) { irq_ = std::move(sink); }

  /// Kernel-side sink for typed descriptor violations (see board.h).
  void set_violation_sink(ViolationSink s) { violation_sink_ = std::move(s); }

  /// Rejections by reason, summed over all channels.
  [[nodiscard]] std::uint64_t violations(Violation v) const {
    return violation_counts_[static_cast<std::size_t>(v)];
  }

  /// Attaches an event trace (optional; null disables).
  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Attaches PDU lifecycle spans (optional; null disables). The firmware
  /// matches driver-enqueue stamps to started PDUs per channel and stamps
  /// every outgoing cell with its PDU's origin tick.
  void set_spans(obs::PduSpans* s) { spans_ = s; }

  /// Enables fault injection (not owned). Consults kBoardTxStall once per
  /// descriptor read while assembling a PDU chain, and kTxQueueWedge once
  /// per ready queue per scheduler pass (a firing skips that queue for the
  /// pass).
  void set_fault_plane(fault::FaultPlane* f) { faults_ = f; }

  /// Wedges the transmit firmware loop: kicks are ignored, the in-progress
  /// PDU (if any) never advances, and the heartbeat word stops, until
  /// reset(). Queue tails freeze, which is what the host watchdog sees.
  void stall();
  [[nodiscard]] bool stalled() const { return stalled_; }

  /// Adaptor reset (host-initiated): clears the wedge, abandons the
  /// in-progress PDU, resets the board-side queue cursors, and bumps the
  /// epoch so stale scheduled steps and tail publishes are discarded.
  void reset();

  /// Starts the firmware heartbeat on dpram::kTxHeartbeatWord; see
  /// RxProcessor::start_heartbeat for semantics.
  void start_heartbeat(sim::Duration period, sim::Tick until);

  /// Doorbell: the host calls this after pushing descriptors.
  void kick();

  // Statistics.
  [[nodiscard]] std::uint64_t pdus_sent() const { return pdus_sent_; }
  [[nodiscard]] std::uint64_t cells_sent() const { return cells_sent_; }
  [[nodiscard]] std::uint64_t dma_ops() const { return dma_ops_; }
  [[nodiscard]] std::uint64_t dma_splits() const { return dma_splits_; }
  [[nodiscard]] std::uint64_t auth_violations() const { return auth_violations_; }
  /// Fixed-length-DMA mode only: cells that carried bytes from beyond the
  /// end of their source buffer (the §2.5.2 security leak).
  [[nodiscard]] std::uint64_t leaked_cells() const { return leaked_cells_; }
  [[nodiscard]] std::uint64_t leaked_bytes() const { return leaked_bytes_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t dma_errors() const { return dma_errors_; }
  /// Descriptor chains rejected as nonsensical (e.g. a corrupted length
  /// word implying more cells than the 16-bit seq space can carry).
  [[nodiscard]] std::uint64_t bad_chains() const { return bad_chains_; }
  /// Times a ready queue was held back by its token bucket during a
  /// scheduler pass (the firmware re-arms itself at the refill time).
  [[nodiscard]] std::uint64_t rate_deferrals() const { return rate_deferrals_; }
  /// Ready queues skipped for one pass by an injected kTxQueueWedge.
  [[nodiscard]] std::uint64_t wedge_skips() const { return wedge_skips_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] sim::Resource& i960() { return i960_; }

 private:
  struct TxQueue {
    int channel;
    dpram::QueueReader reader;
    int priority;
    PageAuth auth;
    std::vector<atm::Vci> owned_vcis;  // empty = any (kernel queue)
    std::uint16_t next_pdu_id = 0;
    bool detached = false;
    std::uint32_t weight = 1;     // DRR weight within the priority class
    std::uint64_t deficit = 0;    // DRR byte credit (reset when idle)
  };

  // Board-side token bucket (per channel). Tokens are wire bytes; refill
  // is continuous at `bytes_per_sec`, capped at `burst`.
  struct RateLimit {
    double bytes_per_sec = 0.0;
    double burst = 0.0;
    double tokens = 0.0;
    sim::Tick last = 0;  // last refill time
  };

  struct Job;

  void service();
  /// Begins transmitting one PDU from the best queue. Returns false if no
  /// queue had a complete PDU chain; otherwise schedules step_job().
  bool start_pdu();
  /// Consumes `q`'s current chain without transmitting, raising the typed
  /// violation toward the kernel and the access-violation interrupt toward
  /// the application; reschedules service() at `fw_t`.
  void reject_chain(TxQueue& q, std::size_t chain_len, Violation why,
                    std::uint64_t detail, sim::Tick fw_t);
  /// Advances the in-progress PDU by one DMA group (one or two cells).
  void step_job();
  /// Fixed-length-DMA variant: one full-cell transfer from one address.
  void step_job_fixed();
  void finish_job(sim::Tick last_dep);
  int pick_queue();
  /// Wire bytes of the PDU at the head of `q`, or 0 when no complete chain
  /// (EOP) is queued.
  std::uint32_t head_wire_bytes(TxQueue& q);
  /// Refills `channel`'s bucket to now and checks `wire` bytes of credit.
  /// On failure stores the earliest tick the credit will exist into
  /// `*refill_at`.
  bool tokens_available(int channel, std::uint32_t wire, sim::Tick* refill_at);
  void check_half_empty(TxQueue& q, sim::Tick at);
  void heartbeat_step();

  sim::Engine* eng_;
  BoardConfig cfg_;
  tc::TurboChannel* bus_;
  mem::PhysicalMemory* host_mem_;
  dpram::DualPortRam* ram_;
  link::StripedLink* link_;
  sim::Resource i960_;
  IrqSink irq_;
  ViolationSink violation_sink_;
  std::array<std::uint64_t, static_cast<std::size_t>(Violation::kCount)>
      violation_counts_{};
  sim::Trace* trace_ = nullptr;
  obs::PduSpans* spans_ = nullptr;
  fault::FaultPlane* faults_ = nullptr;
  std::vector<TxQueue> queues_;
  std::size_t rr_next_ = 0;
  std::map<int, RateLimit> limits_;   // channel -> token bucket
  sim::Tick rate_defer_tick_ = 0;     // earliest token refill seen by pick
  bool active_ = false;
  bool stalled_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_job_serial_ = 0;
  std::unique_ptr<Job> job_;

  // step_job() scratch, reused across DMA groups so the steady-state
  // transmit loop allocates nothing.
  std::vector<atm::Cell> scratch_cells_;
  std::vector<std::size_t> scratch_completed_;
  std::vector<mem::PhysBuffer> scratch_segs_;  // per-cell gather program
  std::vector<std::uint32_t> scratch_wire_;    // pick_queue head sizes

  // Heartbeat state (see start_heartbeat()).
  bool hb_running_ = false;
  sim::Duration hb_period_ = 0;
  sim::Tick hb_until_ = 0;
  std::uint32_t hb_count_ = 0;

  std::uint64_t pdus_sent_ = 0;
  std::uint64_t cells_sent_ = 0;
  std::uint64_t dma_ops_ = 0;
  std::uint64_t dma_splits_ = 0;
  std::uint64_t auth_violations_ = 0;
  std::uint64_t leaked_cells_ = 0;
  std::uint64_t leaked_bytes_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t dma_errors_ = 0;
  std::uint64_t bad_chains_ = 0;
  std::uint64_t rate_deferrals_ = 0;
  std::uint64_t wedge_skips_ = 0;
};

}  // namespace osiris::board
