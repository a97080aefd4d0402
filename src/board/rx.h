// Receive processor firmware.
//
// Cells arrive (from the striped link, or from the on-board fictitious-PDU
// generator used for receive-side isolation experiments, §4). The firmware
// reads VCI/AAL information, routes each cell through the configured
// skew-reassembly strategy (§2.6) to obtain a byte offset within its PDU,
// allocates host receive buffers from the free queue selected by early
// demultiplexing on the VCI (§3.1), and issues DMA writes to place the
// payload directly into host memory. When the on-board FIFO holds the next
// cell and its payload would land contiguously, two payloads are combined
// into a single 88-byte DMA (§2.5.1).
//
// A filled buffer — or the end of a PDU — is pushed onto the receive
// queue; an interrupt is asserted only when the queue transitions from
// empty to non-empty (§2.1.2). A free-queue underflow or a full receive
// queue drops the PDU before it consumes host cycles, which is exactly the
// overload behaviour §3.1 wants for low-priority traffic.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "atm/cell.h"
#include "atm/reassembly.h"
#include "board/board.h"
#include "dpram/dpram.h"
#include "dpram/queue.h"
#include "fault/fault.h"
#include "flow/openmap.h"
#include "flow/table.h"
#include "mem/cache.h"
#include "obs/spans.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/trace.h"
#include "tc/turbochannel.h"

namespace osiris::board {

/// Descriptor flag bits 3..7 carry a small PDU tag so the driver can
/// demultiplex interleaved PDU buffer streams per VCI (only the low 8 flag
/// bits survive the dpram round-trip; see dpram::Descriptor).
constexpr std::uint16_t rx_desc_flags(bool eop, std::uint64_t pdu_key) {
  return static_cast<std::uint16_t>(
      (eop ? dpram::kDescEop : 0) |
      ((pdu_key & dpram::kDescTagMask) << dpram::kDescTagShift));
}

class RxProcessor {
 public:
  RxProcessor(sim::Engine& eng, const BoardConfig& cfg, tc::TurboChannel& bus,
              mem::DataCache& cache, dpram::DualPortRam& ram);

  void set_irq_sink(IrqSink sink) { irq_ = std::move(sink); }

  /// Kernel-side sink for typed free-list violations (see board.h).
  void set_violation_sink(ViolationSink s) { violation_sink_ = std::move(s); }

  /// Attaches an event trace (optional; null disables).
  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Attaches PDU lifecycle spans (optional; null disables). The firmware
  /// records the wire/reassembly/DMA stages and publishes (vci, tag, origin,
  /// push-tick) entries the driver closes at delivery.
  void set_spans(obs::PduSpans* s) { spans_ = s; }

  /// Enables fault injection (not owned). Consults kBoardRxStall once per
  /// arriving cell, kBoardRxCellDrop inside the SAR loop, and
  /// kRxBufferExhausted once per free-queue pop attempt (a firing makes the
  /// pop come back empty, as if the host had fallen behind recycling).
  void set_fault_plane(fault::FaultPlane* f) { faults_ = f; }

  /// Wedges the receive firmware loop: arriving cells are no longer
  /// serviced and the heartbeat word stops advancing, until reset().
  void stall();
  [[nodiscard]] bool stalled() const { return stalled_; }

  /// Adaptor reset (host-initiated, via the driver's watchdog): clears the
  /// wedge, abandons all reassembly and firmware queue state, resets the
  /// board-side queue cursors, and bumps the epoch so completions already
  /// scheduled from before the reset are discarded when they fire.
  void reset();

  /// Starts the firmware heartbeat: the dpram::kRxHeartbeatWord advances
  /// every `period` until the simulation clock passes `until` (bounded so
  /// the event queue always drains). A stalled firmware stops beating;
  /// beating resumes automatically after reset().
  void start_heartbeat(sim::Duration period, sim::Tick until);

  /// Registers a free-buffer queue; returns its id. `auth` guards ADC
  /// buffers (§3.2); violations raise kAccessViolation and skip the buffer.
  int add_free_source(const dpram::QueueLayout& lay, PageAuth auth = nullptr,
                      int channel_id = 0);

  /// Registers a receive queue; returns its index. `channel_id` identifies
  /// it in interrupts.
  int add_recv_channel(const dpram::QueueLayout& lay, int channel_id);

  /// Detaches every free source and receive channel registered for
  /// `channel_id` and discards reassembly state routed at them. Buffer
  /// pushes already scheduled for a detached channel are dropped when they
  /// fire (counted in dead_channel_drops) — a dead tenant's dpram pages
  /// may already belong to a reopened channel. Indices stay stable so
  /// in-flight lambdas remain valid.
  void remove_channel(int channel_id);

  /// True when `channel_id` still has an attached receive channel.
  [[nodiscard]] bool channel_attached(int channel_id) const;

  /// Free-list buffers consumed on behalf of `channel_id` (its receive
  /// traffic's appetite). Feeds the AdcSupervisor's consumption budget.
  [[nodiscard]] std::uint64_t channel_buffers(int channel_id) const;

  /// Quarantines `vci`: arriving cells are dropped and counted instead of
  /// consuming buffers; existing reassembly state for the VCI is
  /// discarded. Unlike unmap_vci the drop is attributed (see
  /// quarantine_drops) so the supervisor can report it.
  void quarantine_vci(atm::Vci vci);

  /// Early demultiplexing table: incoming PDUs on `vci` take buffers from
  /// `free_id` (falling back to `fallback_free_id` when exhausted; pass -1
  /// for none) and are delivered on `recv_idx`.
  void map_vci(atm::Vci vci, int free_id, int fallback_free_id, int recv_idx);
  void unmap_vci(atm::Vci vci);

  /// Per-VCI buffer quota override (0 restores the BoardConfig default):
  /// once `vci` holds `max_buffers` free-list buffers in incomplete
  /// reassemblies, its new PDUs are dropped (pdus_dropped_quota) instead of
  /// draining the shared pool. Overload isolation for a hot or
  /// skew-damaged VCI.
  void set_vci_quota(atm::Vci vci, std::uint32_t max_buffers);

  /// Free-list buffers currently held by `vci`'s in-progress reassemblies.
  [[nodiscard]] std::uint32_t vci_buffers_held(atm::Vci vci) const {
    const VciState* st = flows_.find(vci);
    return st == nullptr ? 0 : st->held;
  }

  /// Link sink: a cell arrived on `lane`.
  void on_cell(int lane, const atm::Cell& c);

  /// Receive-side isolation mode (§4, Figures 2 and 3): the receive
  /// processor synthesizes `count` copies of `pdu` on `vci`, one cell every
  /// `cell_period` (the link cell rate by default), throttled by the
  /// on-board FIFO — i.e. as fast as the host can absorb them.
  void start_generator(atm::Vci vci, std::vector<std::uint8_t> pdu,
                       std::uint64_t count, sim::Duration cell_period);

  /// Multi-PDU variant: each generated "message" is the given sequence of
  /// PDUs (e.g. the IP fragments of one large UDP message), repeated
  /// `count` times.
  void start_generator_multi(atm::Vci vci,
                             const std::vector<std::vector<std::uint8_t>>& pdus,
                             std::uint64_t count, sim::Duration cell_period);
  [[nodiscard]] bool generator_done() const { return !gen_active_; }

  // Statistics.
  [[nodiscard]] std::uint64_t cells_received() const { return cells_received_; }
  /// Cells synthesized locally by the fictitious-PDU generator (a subset of
  /// cells_received; lets conservation audits separate wire arrivals).
  [[nodiscard]] std::uint64_t cells_generated() const { return cells_generated_; }
  [[nodiscard]] std::uint64_t cells_bad_header() const { return cells_bad_header_; }
  [[nodiscard]] std::uint64_t cells_fifo_dropped() const { return cells_fifo_dropped_; }
  [[nodiscard]] std::uint64_t dma_ops() const { return dma_ops_; }
  [[nodiscard]] std::uint64_t combined_dma_ops() const { return combined_dma_ops_; }
  [[nodiscard]] std::uint64_t pdus_completed() const { return pdus_completed_; }
  [[nodiscard]] std::uint64_t pdus_dropped_nobuf() const { return pdus_dropped_nobuf_; }
  [[nodiscard]] std::uint64_t pdus_dropped_recvfull() const { return pdus_dropped_recvfull_; }
  /// PDUs dropped because their VCI hit its buffer quota.
  [[nodiscard]] std::uint64_t pdus_dropped_quota() const { return pdus_dropped_quota_; }
  /// Incomplete reassemblies evicted to feed an arriving PDU
  /// (RxDropPolicy::kDropIncompleteFirst).
  [[nodiscard]] std::uint64_t pdus_evicted() const { return pdus_evicted_; }
  /// kRxFreeLow backpressure interrupts raised (edge-triggered per free
  /// source: one per empty episode, cleared by the next successful pop).
  [[nodiscard]] std::uint64_t backpressure_irqs() const { return backpressure_irqs_; }
  [[nodiscard]] std::uint64_t auth_violations() const { return auth_violations_; }
  /// Free-list rejections / drops by typed reason (see board.h).
  [[nodiscard]] std::uint64_t violations(Violation v) const {
    return violation_counts_[static_cast<std::size_t>(v)];
  }
  /// Cells dropped because their VCI is quarantined.
  [[nodiscard]] std::uint64_t quarantine_drops() const { return quarantine_drops_; }
  /// Buffer pushes discarded because their channel was detached between
  /// scheduling and firing (tenant death mid-completion).
  [[nodiscard]] std::uint64_t dead_channel_drops() const { return dead_channel_drops_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t cells_stalled() const { return cells_stalled_; }
  [[nodiscard]] std::uint64_t cells_sar_dropped() const { return cells_sar_dropped_; }
  [[nodiscard]] std::uint64_t dma_errors() const { return dma_errors_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] sim::Resource& i960() { return i960_; }

  /// Abandons reassembly state for PDUs that started more than `max_age`
  /// ago and never completed (cells lost upstream). Returns the number of
  /// PDUs discarded. Buffers already filled stay with the host (the
  /// driver reclaims its partial accumulations via flush_partials()).
  std::uint64_t purge_incomplete(sim::Duration max_age);

  /// Receive-queue push events scheduled (each may carry several
  /// descriptors; see pushes_coalesced).
  [[nodiscard]] std::uint64_t push_batches() const { return push_batches_scheduled_; }
  /// Descriptors that rode an already-scheduled same-tick push event
  /// instead of re-entering the scheduler (batch-dispatch win).
  [[nodiscard]] std::uint64_t pushes_coalesced() const { return pushes_coalesced_; }

  /// Early-demux flow-table internals, exported to the obs registry:
  /// occupancy, probe lengths, rehash activity (see flow::TableStats).
  [[nodiscard]] const flow::TableStats& flow_stats() const {
    return flows_.stats();
  }
  [[nodiscard]] std::size_t flow_occupancy() const { return flows_.size(); }
  [[nodiscard]] std::size_t flow_capacity() const { return flows_.capacity(); }

  /// Fraction of DMA operations that moved more than one cell payload —
  /// the §2.6 "combining probability" statistic.
  [[nodiscard]] double combine_fraction() const {
    return dma_ops_ == 0 ? 0.0
                         : static_cast<double>(combined_dma_ops_) /
                               static_cast<double>(dma_ops_);
  }

 private:
  struct FreeSource {
    dpram::QueueReader reader;
    PageAuth auth;
    int channel_id;
    bool detached = false;
    std::uint64_t buffers_consumed = 0;
    bool low_raised = false;  // kRxFreeLow edge state for this source
  };
  struct RecvChannel {
    dpram::QueueWriter writer;
    int channel_id;
    sim::Tick push_horizon = 0;
    bool detached = false;
  };
  /// Everything the Rx hot path touches per VCI, consolidated into one
  /// flow-table entry: demux ids, quarantine bit, quota override, live
  /// held count, and the reassembly router. One bucket probe + one slab
  /// read replaces the five separate map lookups this used to take.
  struct VciState {
    static constexpr std::uint32_t kMapped = 1u << 0;
    static constexpr std::uint32_t kQuarantined = 1u << 1;

    std::int32_t free_id = -1;
    std::int32_t fallback = -1;
    std::int32_t recv_idx = -1;
    std::uint32_t flags = 0;
    std::uint32_t quota = 0;  // 0 = BoardConfig default
    std::uint32_t held = 0;   // free-list buffers held by reassemblies
    std::unique_ptr<atm::CellRouter> router;  // created on first cell

    [[nodiscard]] bool mapped() const { return (flags & kMapped) != 0; }
    [[nodiscard]] bool quarantined() const {
      return (flags & kQuarantined) != 0;
    }
  };
  static_assert(sizeof(VciState) <= 64,
                "per-VCI hot state must stay within one cache line");
  struct PduBuf {
    std::uint32_t addr = 0;
    std::uint32_t cap = 0;
    std::uint32_t filled = 0;
    std::uint32_t user = 0;
    bool pushed = false;
  };
  struct RxPdu {
    int recv_idx = 0;
    int free_id = 0;
    int fallback = -1;
    atm::Vci vci = 0;  // quota accounting
    sim::Tick started = 0;
    std::vector<PduBuf> bufs;
    std::uint64_t alloc_cap = 0;  // sum of buffer capacities
    bool complete = false;
    bool dropped = false;
    std::uint32_t wire_len = 0;
    std::uint32_t next_push = 0;
    sim::Tick last_dma = 0;
    sim::Tick t_origin = 0;  // sender driver-enqueue stamp (0 = unstamped)
  };
  struct PendingDma {
    bool valid = false;
    std::uint64_t key = 0;  // (vci, pdu) key
    std::uint32_t offset = 0;
    std::vector<std::uint8_t> bytes;
    sim::Tick t_origin = 0;  // origin stamp of the cell that opened this DMA
  };
  /// A scheduled receive-queue push carrying every same-tick descriptor
  /// for one channel (same-tick batch dispatch; see push_buffer()).
  /// Pooled: slots are recycled through free_batch_ and keep their
  /// descriptor vectors' capacity.
  struct PushBatch {
    sim::Tick at = 0;
    int recv_idx = 0;
    std::uint64_t epoch = 0;
    std::vector<dpram::Descriptor> descs;
    std::uint32_t next_free = kNoBatch;
  };

  static std::uint64_t pdu_map_key(atm::Vci vci, std::uint64_t pdu) {
    return atm::VciKey::pack(vci, pdu);
  }

  void accept_cell(int lane, const atm::Cell& c);
  /// Entry for `vci`, or null when none exists (never inserts).
  VciState* state_for(atm::Vci vci) { return flows_.find(vci); }
  /// Entry for `vci`, inserting a blank one when absent. NOT for the
  /// per-cell path: an insert may grow the slab and move entries, so no
  /// VciState pointer obtained earlier may be used afterwards (routers
  /// are heap-owned and stay put).
  VciState& state_insert(atm::Vci vci);
  /// Erases `vci`'s entry once nothing references it anymore.
  void maybe_release(atm::Vci vci, VciState& st);
  atm::CellRouter& router_for(VciState& st);
  RxPdu* pdu_for(atm::Vci vci, std::uint64_t pdu, std::uint64_t* key_out);
  /// Ensures buffers cover byte range end `need`; pops from free queues.
  /// On failure sets alloc_fail_quota_ when the VCI's quota (not the pool)
  /// was the limit, so the caller counts the right drop statistic.
  bool ensure_capacity(RxPdu& p, std::uint64_t need);
  /// Effective buffer quota for `vci` (override, else config default).
  [[nodiscard]] std::uint32_t quota_for(atm::Vci vci) const;
  /// Drops `held` buffers from `vci`'s quota count.
  void release_quota(atm::Vci vci, std::size_t held);
  /// kDropIncompleteFirst: evicts the oldest incomplete reassembly sharing
  /// `keep`'s free source whose buffers are all still board-held, moving
  /// those buffers to `keep`. Returns true when something was evicted.
  bool evict_incomplete(RxPdu& keep);
  /// Pushes `p`'s still-held buffers host-ward as aborted descriptors so
  /// the driver recycles them (buffer reclaim for drops and quarantine).
  void abort_pdu_buffers(std::uint64_t key, RxPdu& p);
  void handle_placement(atm::Vci vci, const atm::Placement& pl);
  void handle_completion(atm::Vci vci, const atm::Completion& c);
  void flush_pending();
  void schedule_flush_timer();
  /// DMA-writes `bytes` at PDU offset `offset`; updates fill counts.
  void issue_dma(RxPdu& p, std::uint32_t offset,
                 const std::vector<std::uint8_t>& bytes);
  void try_push(std::uint64_t key, RxPdu& p);
  void push_buffer(RxPdu& p, std::uint32_t idx, bool eop, std::uint64_t pdu_tag,
                   atm::Vci vci, sim::Tick at,
                   std::uint16_t extra_flags = 0);
  void fire_push_batch(std::uint32_t bi);
  void step_generator();
  void heartbeat_step();
  std::size_t fifo_occupancy();

  sim::Engine* eng_;
  BoardConfig cfg_;
  tc::TurboChannel* bus_;
  mem::DataCache* cache_;
  dpram::DualPortRam* ram_;
  sim::Resource i960_;
  IrqSink irq_;
  ViolationSink violation_sink_;
  std::array<std::uint64_t, static_cast<std::size_t>(Violation::kCount)>
      violation_counts_{};
  sim::Trace* trace_ = nullptr;
  obs::PduSpans* spans_ = nullptr;
  fault::FaultPlane* faults_ = nullptr;

  bool stalled_ = false;
  std::uint64_t epoch_ = 0;

  // Heartbeat state (see start_heartbeat()).
  bool hb_running_ = false;
  sim::Duration hb_period_ = 0;
  sim::Tick hb_until_ = 0;
  std::uint32_t hb_count_ = 0;

  std::vector<FreeSource> free_sources_;
  std::vector<RecvChannel> recv_channels_;
  /// The early-demultiplexing flow table (replaces the five per-VCI maps).
  flow::FlowTable<VciState> flows_;
  bool alloc_fail_quota_ = false;  // last ensure_capacity failure cause
  /// In-flight reassemblies keyed VciKey::pack(vci, router-local pdu key).
  flow::OpenMap<RxPdu> pdus_;
  PendingDma pending_;
  static constexpr std::uint32_t kNoBatch = ~std::uint32_t{0};
  std::vector<PushBatch> push_batches_;
  std::uint32_t free_batch_ = kNoBatch;
  std::uint32_t open_batch_ = kNoBatch;
  std::vector<dpram::Descriptor> descs_firing_;  // scratch for fire_push_batch
  sim::TimerHandle flush_timer_;  // combine-window timeout for pending_
  std::vector<mem::PhysBuffer> scratch_segs_;  // per-DMA scatter program
  std::vector<atm::Placement> scratch_places_;  // per-cell router output
  std::vector<atm::Completion> scratch_dones_;  // (see accept_cell())
  std::deque<sim::Tick> inflight_;  // decision completion times (FIFO model)
  sim::Tick fw_horizon_ = 0;

  // Generator state.
  std::vector<std::vector<atm::Cell>> gen_trains_;  // one per fragment PDU
  atm::Vci gen_vci_ = 0;
  std::uint64_t gen_remaining_ = 0;  // messages left
  std::size_t gen_train_idx_ = 0;
  std::size_t gen_cell_idx_ = 0;
  std::uint16_t gen_pdu_id_ = 0;
  sim::Duration gen_period_ = 0;
  bool gen_active_ = false;

  std::uint64_t cells_received_ = 0;
  std::uint64_t cells_generated_ = 0;
  std::uint64_t cells_bad_header_ = 0;
  std::uint64_t cells_fifo_dropped_ = 0;
  std::uint64_t dma_ops_ = 0;
  std::uint64_t combined_dma_ops_ = 0;
  std::uint64_t pdus_completed_ = 0;
  std::uint64_t pdus_dropped_nobuf_ = 0;
  std::uint64_t pdus_dropped_recvfull_ = 0;
  std::uint64_t pdus_dropped_quota_ = 0;
  std::uint64_t pdus_evicted_ = 0;
  std::uint64_t backpressure_irqs_ = 0;
  std::uint64_t auth_violations_ = 0;
  std::uint64_t quarantine_drops_ = 0;
  std::uint64_t dead_channel_drops_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t cells_stalled_ = 0;
  std::uint64_t cells_sar_dropped_ = 0;
  std::uint64_t dma_errors_ = 0;
  std::uint64_t push_batches_scheduled_ = 0;
  std::uint64_t pushes_coalesced_ = 0;
};

}  // namespace osiris::board
