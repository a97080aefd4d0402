// The OSIRIS device driver (kernel side).
//
// Implements the host half of the §2.1 communication discipline:
//  * lock-free descriptor queues in the dual-port RAM, one transmit queue
//    and one free/receive queue pair for the kernel (channel pair 0);
//  * transmit completion detected by watching the tail pointer advance
//    during other driver activity — no interrupt; when the transmit queue
//    fills, the driver suspends, sets the queue's ctrl flag, and resumes
//    on the half-empty interrupt (§2.1.2);
//  * one receive interrupt per burst: the board interrupts only on the
//    empty -> non-empty transition, and the driver thread drains until the
//    queue is empty;
//  * page wiring before DMA (§2.4), with the fast or the Mach-standard
//    (slow) path;
//  * lazy cache invalidation (§2.3): received data is NOT invalidated
//    up front; a consumer that detects a checksum error calls
//    recover_stale(), which invalidates and lets the data be re-read from
//    memory. Eager invalidation (invalidate every buffer on receipt) is
//    available for the Figure 2 comparison.
//
// The driver is also used, unchanged, as the ADC channel driver linked
// into applications (§3.2) — only the channel pair, the buffer pool, and
// the cost of reaching it differ.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "atm/cell.h"
#include "board/tx.h"
#include "fault/fault.h"
#include "dpram/dpram.h"
#include "dpram/queue.h"
#include "flow/table.h"
#include "host/interrupts.h"
#include "host/machine.h"
#include "mem/cache.h"
#include "mem/paging.h"
#include "mem/wiring.h"
#include "obs/spans.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace osiris::board {
class RxProcessor;
}  // namespace osiris::board

namespace osiris::host {

/// One receive buffer as handed to upper layers (physical address; data is
/// read through the cache model).
struct RxBuffer {
  std::uint32_t pa = 0;
  std::uint32_t len = 0;     // filled bytes
  std::uint32_t id = 0;      // driver buffer id (for recycling)
};

/// A received PDU: the chain of buffers holding wire bytes (user PDU
/// followed by the 8-byte AAL trailer).
struct RxPduView {
  atm::Vci vci = 0;
  std::uint32_t wire_len = 0;
  std::uint32_t pdu_len = 0;  // wire_len - trailer
  std::vector<RxBuffer> bufs;

  /// Reads `n` bytes starting at PDU offset `off` directly from physical
  /// memory (no cost model; used by tests and for CRC ground truth).
  void read_raw(const mem::PhysicalMemory& pm, std::uint32_t off,
                std::span<std::uint8_t> out) const;

  /// Reads through the data cache, accumulating access costs (used by the
  /// checksum path; may return STALE bytes on a non-coherent machine).
  void read_cached(mem::DataCache& cache, std::uint32_t off,
                   std::span<std::uint8_t> out, mem::AccessCost& cost) const;
};

class OsirisDriver {
 public:
  struct Config {
    std::uint32_t rx_buffers = 64;             // paper §2.3
    std::uint32_t rx_buffer_bytes = 16 * 1024; // paper §2.3
    bool eager_invalidate = false;             // Figure 2's third curve
    mem::WiringMode wiring = mem::WiringMode::kFastPath;
  };

  /// Upper-layer receive hook. Called when a complete PDU has been popped;
  /// returns the time upper processing finishes. The driver recycles
  /// whatever remains in pdu.bufs afterwards — a handler that needs the
  /// buffers to outlive the call (e.g. until an end-to-end checksum has
  /// been verified, §2.3) moves them out and later calls release().
  using RxHandler = std::function<sim::Tick(sim::Tick at, RxPduView& pdu)>;

  OsirisDriver(sim::Engine& eng, const MachineConfig& mc, HostCpu& cpu,
               InterruptController& intc, tc::TurboChannel& bus,
               mem::PhysicalMemory& pm, mem::DataCache& cache,
               mem::FrameAllocator& frames, dpram::DualPortRam& ram,
               board::TxProcessor& txp, const dpram::ChannelLayout& lay,
               Config cfg);

  /// Flips the alive token so scheduled events that outlive the driver
  /// (kicks, drain steps, watchdog ticks) become no-ops when they fire.
  ~OsirisDriver();

  OsirisDriver(const OsirisDriver&) = delete;
  OsirisDriver& operator=(const OsirisDriver&) = delete;

  /// Allocates the receive buffer pool, queues it on the channel's free
  /// queue, and hooks the interrupts the board raises for `adc_channel`.
  void attach(int adc_channel = 0);

  /// Crash-safe teardown (idempotent): unhooks the interrupt handlers,
  /// stops the watchdog, abandons in-flight drains and sends, unwires
  /// outstanding transmit pages, and frees the frames attach() allocated.
  /// The board-side queues MUST already be detached (TxProcessor::
  /// remove_queue / RxProcessor::remove_channel) — the firmware may not
  /// DMA into frames returned to the allocator.
  void detach();
  [[nodiscard]] bool detached() const { return detached_; }

  void set_rx_handler(RxHandler h) { rx_handler_ = std::move(h); }

  /// Attaches an event trace (optional; null disables).
  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Attaches PDU lifecycle spans (optional; null disables). `tx_channel`
  /// is the board-side transmit channel this driver posts on (the same
  /// number handed to TxProcessor::add_queue), so enqueue stamps meet the
  /// firmware's per-channel FIFO.
  void set_spans(obs::PduSpans* s, int tx_channel = 0) {
    spans_ = s;
    span_channel_ = tx_channel;
  }

  /// Queues one PDU (a chain of physical buffers) for transmission on
  /// `vci`, starting at `at`. Returns the time the host CPU is done (the
  /// board proceeds asynchronously). Handles queue-full suspension.
  sim::Tick send(sim::Tick at, atm::Vci vci,
                 const std::vector<mem::PhysBuffer>& bufs);

  /// Returns retained receive buffers to the channel's free queue. Each
  /// push costs the usual dual-port-RAM PIO.
  sim::Tick release(sim::Tick at, const std::vector<RxBuffer>& bufs) {
    return recycle(maybe_resync(at), bufs);
  }

  /// Reclaims all partial PDU accumulations (buffers received without an
  /// EOP because cells were lost upstream). Returns completion time.
  sim::Tick flush_partials(sim::Tick at) {
    sim::Tick t = maybe_resync(at);
    accum_.for_each([this, &t](std::uint64_t, Accum& acc) {
      ++stale_partial_;
      t = recycle(t, acc.bufs);
    });
    accum_.clear();
    return t;
  }

  /// §2.3 lazy-invalidation recovery: a consumer found a checksum error;
  /// invalidate the PDU's cache lines so a re-read sees memory. Returns
  /// completion time (invalidation costs ~1 cycle/word).
  sim::Tick recover_stale(sim::Tick at, const RxPduView& pdu);

  // ---- Watchdog / adaptor reset --------------------------------------
  //
  // The adaptor has no hardware watchdog; the driver polls two heartbeat
  // words the firmware advances in the dual-port RAM. A frozen heartbeat
  // — or a non-empty transmit queue whose tail has stopped moving — past
  // `deadline` means a wedged board half, and the driver performs a full
  // adaptor reset: both processors and every queue are reinitialized, the
  // receive buffer pool is re-posted, suspended sends are replayed, and a
  // generation counter is bumped so completions scheduled before the
  // reset are discarded when they fire. In-flight PDUs are lost; an upper
  // layer wanting reliability runs ARQ (proto::ArqEndpoint) on top.

  /// Gives the watchdog reset access to the receive processor (the tx
  /// processor is already a constructor dependency).
  void bind_rx(board::RxProcessor* rxp) { rxp_ = rxp; }

  /// Enables fault injection on the host paths (kIrqSpurious).
  void set_fault_plane(fault::FaultPlane* f) { faults_ = f; }

  /// Arms tenant-misbehaviour injection (kAdcFreeListPoison,
  /// kAdcRefillStall) on this channel driver's recycle path — a separate,
  /// per-tenant plane so one adversarial application doesn't perturb the
  /// node-level hardware fault schedule.
  void set_tenant_fault_plane(fault::FaultPlane* f) { tenant_faults_ = f; }

  /// Posts one raw transmit descriptor, bypassing send()'s scatter/wire
  /// path — exactly what a buggy or malicious application can do with its
  /// mapped queue page (§3.2). The descriptor's contents are NOT checked;
  /// the board firmware is the policeman. Returns host-CPU completion.
  sim::Tick post_raw(sim::Tick at, const dpram::Descriptor& d);

  /// Registers a hook run during force_reset(), after queues are
  /// reinitialized and before buffers are re-posted: upper layers must
  /// forget retained receive buffers (the pool is re-posted wholesale),
  /// discard partial reassembly state, and resynchronize any transmit-side
  /// bookkeeping keyed to pre-reset descriptor watermarks. Several layers
  /// register independently (the stack's reassembly flush, ARQ's session
  /// resync); hooks run in registration order. Returns a token for
  /// remove_reset_hook().
  int add_reset_hook(std::function<void(sim::Tick)> h) {
    const int token = next_reset_hook_token_++;
    reset_hooks_.push_back({token, std::move(h)});
    return token;
  }
  /// Unregisters a hook; stale or already-removed tokens are no-ops.
  void remove_reset_hook(int token) {
    std::erase_if(reset_hooks_,
                  [token](const auto& e) { return e.first == token; });
  }

  /// Polls every `period`; a heartbeat stale for longer than `deadline`
  /// declares a wedge. Polling stops past `until`, so the run drains.
  void start_watchdog(sim::Duration period, sim::Duration deadline,
                      sim::Tick until);

  /// Immediate adaptor reset (what the watchdog fires; callable directly
  /// by tests). Returns the time the host CPU finished recovery.
  sim::Tick force_reset(sim::Tick at);

  /// Generation check for channel drivers that did NOT initiate an
  /// adaptor reset (many drivers share one board, §3.2): the kernel
  /// watchdog's force_reset() zeroes every channel's board-side cursors
  /// and RAM queue words, leaving this driver's cached cursors, in-flight
  /// accounting and posted free pool stale. Every host-facing entry point
  /// calls this; when the board epoch has moved it rebuilds host-side
  /// state exactly as force_reset() does (reset hooks included) and bumps
  /// generation() so pre-reset completions die at their epoch checks.
  sim::Tick maybe_resync(sim::Tick at);
  /// Board resets this driver observed (via maybe_resync) but did not
  /// initiate.
  [[nodiscard]] std::uint64_t resyncs_observed() const {
    return resyncs_observed_;
  }

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t watchdog_resets() const { return watchdog_resets_; }
  /// Receive bursts recovered by the watchdog poll (lost interrupt).
  [[nodiscard]] std::uint64_t watchdog_polls() const { return watchdog_polls_; }
  [[nodiscard]] std::uint64_t spurious_irqs() const { return spurious_irqs_; }
  /// Descriptors rejected as nonsensical (corrupted id/addr/len).
  [[nodiscard]] std::uint64_t bad_descriptors() const { return bad_descriptors_; }
  /// kRxFreeLow interrupts fielded: the firmware ran a free queue dry
  /// mid-reassembly and asked for buffers back. The driver responds by
  /// draining the receive ring immediately (every delivered/aborted PDU
  /// recycles its buffers to the free list) instead of waiting for the
  /// next kRxNonEmpty edge.
  [[nodiscard]] std::uint64_t backpressure_events() const {
    return backpressure_events_;
  }

  /// True while the transmit path is suspended on a full queue (§2.1.2).
  [[nodiscard]] bool tx_suspended() const { return tx_suspended_; }

  /// One-shot callback fired when a suspended transmit path has drained
  /// its pending sends — how a blocking send() unblocks its caller.
  void set_tx_resume(std::function<void(sim::Tick)> cb) {
    tx_resume_ = std::move(cb);
  }

  /// Transmit-completion watermarks (§2.1.2 lazy reclaim): a send's DMA is
  /// finished once tx_descs_retired() reaches the tx_descs_accepted() value
  /// observed just after that send returned. Zero-copy senders (e.g. the
  /// ARQ frame arena) use these to decide when a buffer may be rewritten;
  /// reusing it earlier races the board's DMA reads. A watchdog reset
  /// retires everything outstanding (lost chains never complete; replayed
  /// parked chains are re-accepted), which would let post-reset reuse race
  /// a replayed chain — zero-copy senders must therefore re-quarantine
  /// their slots from a reset hook (ArqEndpoint::on_driver_reset does).
  [[nodiscard]] std::uint64_t tx_descs_accepted() const {
    return tx_descs_accepted_;
  }
  [[nodiscard]] std::uint64_t tx_descs_retired() const {
    return tx_descs_retired_;
  }

  /// Polls the transmit tail word and retires completed descriptors now
  /// (otherwise reclaim happens as a side effect of the next send()).
  sim::Tick reclaim_tx(sim::Tick at) { return reap_tx(maybe_resync(at)); }

  // Statistics.
  [[nodiscard]] std::uint64_t pdus_sent() const { return pdus_sent_; }
  [[nodiscard]] std::uint64_t pdus_received() const { return pdus_received_; }
  [[nodiscard]] std::uint64_t tx_suspensions() const { return tx_suspensions_; }
  [[nodiscard]] std::uint64_t stale_partial_pdus() const { return stale_partial_; }
  /// PDUs shorter than their own AAL trailer, recycled undelivered.
  [[nodiscard]] std::uint64_t runt_pdus() const { return runt_pdus_; }
  /// recover_stale() calls: PDUs whose buffers a consumer had re-invalidated
  /// after a checksum mismatch, stale data or damaged alike.
  [[nodiscard]] std::uint64_t checksum_invalidations() const {
    return checksum_invalidations_;
  }
  [[nodiscard]] const mem::PageWiring& wiring() const { return wiring_; }
  [[nodiscard]] const MachineConfig& machine() const { return *mc_; }

  /// Exposes the kernel receive-queue reader fill level (tests).
  [[nodiscard]] std::uint32_t recv_backlog() const { return recv_reader_.size(); }

  /// All buffers of this driver's receive pool; used by ADCs to build
  /// their authorized-page lists.
  [[nodiscard]] std::vector<mem::PhysBuffer> buffer_pool() const {
    std::vector<mem::PhysBuffer> out;
    out.reserve(buffers_.size());
    for (const auto& b : buffers_) out.push_back({b.pa, b.cap});
    return out;
  }

 private:
  struct BufferInfo {
    std::uint32_t pa = 0;
    std::uint32_t cap = 0;
  };
  struct PendingSend {
    atm::Vci vci;
    std::vector<mem::PhysBuffer> bufs;
  };
  struct Accum {
    std::vector<RxBuffer> bufs;
    std::uint32_t bytes = 0;
    std::uint64_t seq = 0;  // arrival order, for oldest-first reclaim
  };

  void on_rx_interrupt(sim::Tick at);
  void on_tx_half_empty(sim::Tick at);
  /// Shared tail of force_reset()/maybe_resync(): rebuilds every piece of
  /// host-side state invalidated by a board reset (cursors, in-flight
  /// accounting, reset hooks, pool re-post, parked-send replay).
  sim::Tick resync_host_state(sim::Tick at);
  void drain_step(sim::Tick at);
  void watchdog_tick();
  sim::Tick deliver(sim::Tick at, atm::Vci vci, std::uint32_t tag,
                    Accum&& acc);
  sim::Tick recycle(sim::Tick at, const std::vector<RxBuffer>& bufs);
  /// Reclaims completed transmit descriptors (tail watch) and unwires.
  sim::Tick reap_tx(sim::Tick at);
  sim::Tick push_chain(sim::Tick at, atm::Vci vci,
                       const std::vector<mem::PhysBuffer>& bufs);

  sim::Engine* eng_;
  const MachineConfig* mc_;
  HostCpu* cpu_;
  InterruptController* intc_;
  tc::TurboChannel* bus_;
  mem::PhysicalMemory* pm_;
  mem::DataCache* cache_;
  mem::FrameAllocator* frames_;
  dpram::DualPortRam* ram_;
  board::TxProcessor* txp_;
  dpram::ChannelLayout lay_;
  Config cfg_;

  dpram::QueueWriter tx_writer_;
  dpram::QueueWriter free_writer_;
  dpram::QueueReader recv_reader_;

  RxHandler rx_handler_;
  sim::Trace* trace_ = nullptr;
  obs::PduSpans* spans_ = nullptr;
  int span_channel_ = 0;
  board::RxProcessor* rxp_ = nullptr;
  fault::FaultPlane* faults_ = nullptr;
  fault::FaultPlane* tenant_faults_ = nullptr;
  // Scheduled lambdas capture this token by value and bail once the driver
  // is destroyed — generation checks alone can't help after free.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  int rx_irq_token_ = -1;
  int tx_irq_token_ = -1;
  int free_low_token_ = -1;
  bool detached_ = false;
  std::vector<std::pair<int, std::function<void(sim::Tick)>>> reset_hooks_;
  int next_reset_hook_token_ = 0;

  // Watchdog state.
  sim::Duration wd_period_ = 0;
  sim::Duration wd_deadline_ = 0;
  sim::Tick wd_until_ = 0;
  sim::TimerHandle wd_timer_;  // the next scheduled watchdog_tick()
  bool wd_running_ = false;
  std::uint32_t wd_tx_hb_ = 0, wd_rx_hb_ = 0;
  sim::Tick wd_tx_change_ = 0, wd_rx_change_ = 0;
  bool wd_tx_seen_ = false, wd_rx_seen_ = false;
  std::uint32_t wd_txtail_ = 0;
  sim::Tick wd_txtail_change_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t board_epoch_ = 0;       // TxProcessor epoch last seen
  std::uint64_t resyncs_observed_ = 0;  // resets observed, not initiated
  std::vector<BufferInfo> buffers_;  // by id
  /// Partial PDUs keyed atm::VciKey::pack(vci, pdu_tag).
  flow::FlowTable<Accum> accum_;
  std::uint64_t accum_seq_ = 0;  // monotone arrival stamp for Accum::seq
  std::deque<PendingSend> pending_sends_;
  std::deque<std::vector<mem::PhysBuffer>> inflight_tx_;  // for unwiring
  std::uint64_t tx_descs_accepted_ = 0;  // monotone; counted at send()
  std::uint64_t tx_descs_retired_ = 0;   // monotone; tail-watch in reap_tx
  bool draining_ = false;
  bool tx_suspended_ = false;
  std::function<void(sim::Tick)> tx_resume_;

  std::uint64_t pdus_sent_ = 0;
  std::uint64_t pdus_received_ = 0;
  std::uint64_t tx_suspensions_ = 0;
  std::uint64_t stale_partial_ = 0;
  std::uint64_t runt_pdus_ = 0;
  std::uint64_t checksum_invalidations_ = 0;
  std::uint64_t watchdog_resets_ = 0;
  std::uint64_t watchdog_polls_ = 0;
  std::uint64_t spurious_irqs_ = 0;
  std::uint64_t bad_descriptors_ = 0;
  std::uint64_t backpressure_events_ = 0;
  mem::PageWiring wiring_;
};

}  // namespace osiris::host
