#include "board/tx.h"

#include <algorithm>
#include <stdexcept>

#include "atm/checksum.h"
#include "atm/sar.h"
#include "mem/paging.h"

namespace osiris::board {

namespace {
// On-board cell FIFO between the DMA engine and the cell generator: how
// many cells the DMA may run ahead of the link.
constexpr std::size_t kTxFifoCells = 32;

// Firmware instruction budgets, as time per decision (the receive half's
// are in rx.cc): segmentation plus one DMA command, and the handling of
// one transmit descriptor.
constexpr sim::Duration kFwPerDma = sim::us(0.50);
constexpr sim::Duration kFwPerDescriptor = sim::us(1.5);
// Doorbell-to-service latency of the transmit firmware's poll loop.
constexpr sim::Duration kPollLatency = sim::us(2.0);

// Extra TURBOchannel cycles per transmit DMA for command/descriptor
// fetch by the i960. This is why sustained transmit tops out near the
// paper's 325 Mbps rather than the 367 Mbps pure-DMA bound (§4, Fig 4).
constexpr std::uint32_t kDmaSetupCycles = 2;

// Deficit-round-robin quantum: bytes of credit a transmit queue earns per
// scheduler round, scaled by its weight. One quantum close to the typical
// PDU wire length keeps latency low without starving large-PDU queues.
constexpr std::uint64_t kDrrQuantumBytes = 2048;
}  // namespace

// Per-PDU transmission state. The firmware advances one DMA group (one or
// two cells) per step, booking bus time as it goes, so transmit DMA reads
// interleave with receive DMA writes on the shared TURBOchannel exactly as
// hardware bus arbitration would interleave them.
struct TxProcessor::Job {
  std::size_t queue_idx = 0;
  std::uint64_t serial = 0;  // guards stale step events after an abandon
  std::vector<dpram::Descriptor> chain;
  std::vector<std::uint32_t> tails;      // tail value to publish per buffer
  std::vector<sim::Tick> buf_done;       // when each buffer finished DMA
  std::uint32_t pdu_len = 0;
  std::uint32_t wire = 0;
  std::uint32_t ncells = 0;
  atm::Vci vci = 0;
  std::uint16_t pdu_id = 0;
  // Stream cursor.
  std::size_t di = 0;
  std::uint32_t doff = 0;
  std::uint32_t next_seq = 0;
  sim::Tick handover_floor = 0;  // cell-generator handovers are in order
  atm::Crc32 crc;
  std::array<std::uint8_t, atm::kTrailerBytes> trailer{};
  std::uint32_t trailer_off = 0;
  bool trailer_ready = false;
  std::deque<sim::Tick> departures;
  // Lifecycle span stamps (zero when spans are detached or unmatched).
  sim::Tick t_origin = 0;  // driver-enqueue tick, carried into every cell
  sim::Tick t_start = 0;   // firmware descriptor-handling completion
};

TxProcessor::TxProcessor(sim::Engine& eng, const BoardConfig& cfg,
                         tc::TurboChannel& bus, mem::PhysicalMemory& host_mem,
                         dpram::DualPortRam& ram, link::StripedLink& link)
    : eng_(&eng),
      cfg_(cfg),
      bus_(&bus),
      host_mem_(&host_mem),
      ram_(&ram),
      link_(&link),
      i960_(eng, "tx.i960") {}

TxProcessor::~TxProcessor() = default;

void TxProcessor::add_queue(int channel, const dpram::QueueLayout& lay,
                            int priority, PageAuth auth,
                            std::vector<atm::Vci> owned_vcis) {
  queues_.push_back(TxQueue{channel,
                            dpram::QueueReader(*ram_, lay, dpram::Side::kBoard),
                            priority, std::move(auth), std::move(owned_vcis),
                            0, false});
}

void TxProcessor::set_queue_weight(int channel, std::uint32_t weight) {
  const std::uint32_t w = std::max<std::uint32_t>(1, weight);
  for (TxQueue& q : queues_) {
    if (q.channel == channel && !q.detached) q.weight = w;
  }
}

void TxProcessor::set_rate_limit(int channel, double bytes_per_sec,
                                 std::uint64_t burst_bytes) {
  if (bytes_per_sec <= 0.0) {
    limits_.erase(channel);
  } else {
    RateLimit rl;
    rl.bytes_per_sec = bytes_per_sec;
    rl.burst = static_cast<double>(std::max<std::uint64_t>(1, burst_bytes));
    rl.tokens = rl.burst;  // the bucket starts full
    rl.last = eng_->now();
    limits_[channel] = rl;
  }
  // A loosened (or lifted) limit may make a deferred queue eligible now.
  kick();
}

void TxProcessor::remove_queue(int channel) {
  // Scheduler state is per channel: a reused pair index must not inherit
  // the dead tenant's byte credit or (worse) its rate limit.
  limits_.erase(channel);
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    TxQueue& q = queues_[i];
    if (q.channel != channel || q.detached) continue;
    q.detached = true;
    q.deficit = 0;
    q.weight = 1;
    if (job_ != nullptr && job_->queue_idx == i) {
      // Abandon the in-progress PDU mid-transfer: its remaining cells are
      // never generated and its tail publishes are discarded (the dead
      // tenant's completion signals must not touch a recycled dpram page).
      job_.reset();
      const std::uint64_t ep = epoch_;
      eng_->schedule(0, [this, ep] {
        if (ep == epoch_) service();
      });
    }
    sim::trace_event(trace_, eng_->now(), "tx", "queue_detach",
                     static_cast<std::uint64_t>(channel), i);
  }
}

bool TxProcessor::queue_attached(int channel) const {
  for (const TxQueue& q : queues_) {
    if (q.channel == channel && !q.detached) return true;
  }
  return false;
}

void TxProcessor::stall() {
  if (stalled_) return;
  stalled_ = true;
  ++stalls_;
  sim::trace_event(trace_, eng_->now(), "tx", "stall", epoch_, 0);
}

void TxProcessor::reset() {
  ++epoch_;
  stalled_ = false;
  active_ = false;
  job_.reset();
  rate_defer_tick_ = 0;
  // reset_all, not reset: trusting a stale head word would replay whatever
  // descriptors a channel driver had queued before the reset (duplicated
  // PDUs on the wire). Channel drivers resynchronize their cached cursors
  // through their own generation check (OsirisDriver::maybe_resync).
  for (TxQueue& q : queues_) {
    q.reader.reset_all();
    q.deficit = 0;
  }
  sim::trace_event(trace_, eng_->now(), "tx", "reset", epoch_, 0);
}

void TxProcessor::start_heartbeat(sim::Duration period, sim::Tick until) {
  hb_period_ = period;
  hb_until_ = until;
  if (!hb_running_) {
    hb_running_ = true;
    eng_->schedule(0, [this] { heartbeat_step(); });
  }
}

void TxProcessor::heartbeat_step() {
  if (!hb_running_) return;
  if (eng_->now() >= hb_until_) {
    hb_running_ = false;
    return;
  }
  // Keeps firing while stalled so beating resumes after reset(); only the
  // word (what the host watchdog reads) freezes.
  if (!stalled_) {
    ram_->write(dpram::Side::kBoard, dpram::kTxHeartbeatWord, ++hb_count_);
  }
  eng_->schedule(hb_period_, [this] { heartbeat_step(); });
}

void TxProcessor::kick() {
  if (active_ || stalled_) return;
  active_ = true;
  const std::uint64_t ep = epoch_;
  eng_->schedule(kPollLatency, [this, ep] {
    if (ep == epoch_) service();
  });
}

void TxProcessor::service() {
  if (stalled_) {
    active_ = false;
    return;
  }
  if (start_pdu()) return;
  active_ = false;
  if (rate_defer_tick_ > 0) {
    // Every eligible PDU was gated by a token bucket: re-arm at the
    // earliest refill so a lone rate-limited queue drains without another
    // host doorbell.
    const std::uint64_t ep = epoch_;
    const sim::Tick at = std::max(rate_defer_tick_, eng_->now());
    eng_->schedule_at(at, [this, ep] {
      if (ep != epoch_ || stalled_ || active_) return;
      active_ = true;
      service();
    });
  }
}

std::uint32_t TxProcessor::head_wire_bytes(TxQueue& q) {
  // A queue is ready when it holds a complete PDU chain (EOP present).
  // Claimed lengths are clamped to kMaxAdcDescriptorBytes: a forged 4 GB
  // word must not distort the scheduler's byte credit.
  std::uint64_t len = 0;
  for (std::uint32_t k = 0;; ++k) {
    const auto d = q.reader.peek_at(k);
    if (!d) return 0;
    len += std::min(d->len, kMaxAdcDescriptorBytes);
    if ((d->flags & dpram::kDescEop) != 0) break;
  }
  return atm::wire_len(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(len, 0xFFFFFFFFull)));
}

bool TxProcessor::tokens_available(int channel, std::uint32_t wire,
                                   sim::Tick* refill_at) {
  const auto it = limits_.find(channel);
  if (it == limits_.end()) return true;
  RateLimit& rl = it->second;
  const sim::Tick now = eng_->now();
  if (now > rl.last) {
    // Ticks are picoseconds: bytes earned = rate * elapsed / 1e12.
    rl.tokens = std::min(
        rl.burst,
        rl.tokens + rl.bytes_per_sec * (static_cast<double>(now - rl.last) *
                                        1e-12));
    rl.last = now;
  }
  // A PDU larger than the burst could never gather full credit; serving it
  // at a full bucket (tokens go negative) preserves the long-run rate
  // without wedging the queue.
  const double target = std::min(static_cast<double>(wire), rl.burst);
  if (rl.tokens >= target) return true;
  const double secs = (target - rl.tokens) / rl.bytes_per_sec;
  *refill_at = now + static_cast<sim::Tick>(secs * 1e12) + 1;
  return false;
}

int TxProcessor::pick_queue() {
  rate_defer_tick_ = 0;
  if (queues_.empty()) return -1;

  // Pass 1: readiness, head PDU sizes, rate eligibility, and the top
  // priority class among eligible queues. Strict priority between classes
  // is preserved; DRR shares the link only within a class.
  scratch_wire_.assign(queues_.size(), 0);
  int top = 0;
  bool have_top = false;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    TxQueue& q = queues_[i];
    if (q.detached) {
      q.deficit = 0;
      continue;
    }
    const std::uint32_t wire = head_wire_bytes(q);
    if (wire == 0) {
      q.deficit = 0;  // classic DRR: an idle queue forfeits its credit
      continue;
    }
    if (fault::fires(faults_, fault::Point::kTxQueueWedge)) {
      ++wedge_skips_;
      sim::trace_event(trace_, eng_->now(), "tx", "queue_wedge",
                       static_cast<std::uint64_t>(q.channel), i);
      continue;
    }
    sim::Tick refill = 0;
    if (!tokens_available(q.channel, wire, &refill)) {
      ++rate_deferrals_;
      if (rate_defer_tick_ == 0 || refill < rate_defer_tick_) {
        rate_defer_tick_ = refill;
      }
      continue;  // work-conserving: a dry bucket never blocks neighbours
    }
    scratch_wire_[i] = wire;
    if (!have_top || q.priority > top) {
      top = q.priority;
      have_top = true;
    }
  }
  if (!have_top) return -1;

  // Pass 2: closed-form DRR over the top class. Deficits grow by
  // weight * quantum per round, so the queue needing the fewest whole
  // rounds to cover its head PDU is the one DRR would reach first; ties
  // fall to rotation order from rr_next_.
  std::uint64_t best_rounds = 0;
  std::size_t best = 0;
  bool found = false;
  for (std::size_t off = 0; off < queues_.size(); ++off) {
    const std::size_t i = (rr_next_ + off) % queues_.size();
    const TxQueue& q = queues_[i];
    if (scratch_wire_[i] == 0 || q.priority != top) continue;
    const std::uint64_t earn = kDrrQuantumBytes * q.weight;
    const std::uint64_t lack =
        scratch_wire_[i] > q.deficit ? scratch_wire_[i] - q.deficit : 0;
    const std::uint64_t rounds = (lack + earn - 1) / earn;
    if (!found || rounds < best_rounds) {
      found = true;
      best_rounds = rounds;
      best = i;
    }
  }

  // Advance every contender's deficit by the rounds that elapsed, then
  // serve the winner and charge its token bucket (eligibility above
  // guaranteed the credit; an over-burst PDU legitimately goes negative).
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (scratch_wire_[i] == 0 || queues_[i].priority != top) continue;
    queues_[i].deficit += best_rounds * kDrrQuantumBytes * queues_[i].weight;
  }
  TxQueue& w = queues_[best];
  w.deficit -= std::min<std::uint64_t>(w.deficit, scratch_wire_[best]);
  const auto lit = limits_.find(w.channel);
  if (lit != limits_.end()) {
    lit->second.tokens -= static_cast<double>(scratch_wire_[best]);
  }
  rr_next_ = best + 1;
  return static_cast<int>(best);
}

void TxProcessor::check_half_empty(TxQueue& q, sim::Tick /*at*/) {
  const auto& lay = q.reader.layout();
  const std::uint32_t ctrl = ram_->read(dpram::Side::kBoard, lay.ctrl_word());
  if ((ctrl & dpram::kCtrlWantHalfEmptyIrq) == 0) return;
  const std::uint32_t head = ram_->read(dpram::Side::kBoard, lay.head_word());
  const std::uint32_t tail = ram_->read(dpram::Side::kBoard, lay.tail_word());
  const std::uint32_t used = (head + lay.capacity - tail) % lay.capacity;
  if (used <= lay.capacity / 2) {
    ram_->write(dpram::Side::kBoard, lay.ctrl_word(),
                ctrl & ~dpram::kCtrlWantHalfEmptyIrq);
    if (irq_) irq_(Irq::kTxHalfEmpty, q.channel);
  }
}

void TxProcessor::reject_chain(TxQueue& q, std::size_t chain_len,
                               Violation why, std::uint64_t detail,
                               sim::Tick fw_t) {
  const std::uint32_t tail = q.reader.consume(static_cast<std::uint32_t>(chain_len));
  q.reader.publish(tail);
  ++auth_violations_;
  ++violation_counts_[static_cast<std::size_t>(why)];
  sim::trace_event(trace_, eng_->now(), "tx", violation_name(why),
                   static_cast<std::uint64_t>(q.channel), detail);
  if (irq_) irq_(Irq::kAccessViolation, q.channel);
  if (violation_sink_) violation_sink_(why, q.channel);
  const std::uint64_t ep = epoch_;
  eng_->schedule_at(fw_t, [this, ep] {
    if (ep == epoch_) service();
  });
}

bool TxProcessor::start_pdu() {
  const int qi = pick_queue();
  if (qi < 0) return false;
  TxQueue& q = queues_[static_cast<std::size_t>(qi)];

  auto job = std::make_unique<Job>();
  job->queue_idx = static_cast<std::size_t>(qi);
  for (std::uint32_t k = 0;; ++k) {
    if (fault::fires(faults_, fault::Point::kBoardTxStall)) {
      // Firmware wedges mid-chain, before consuming anything: the queue
      // stays non-empty with a frozen tail, which is the signature the
      // host watchdog looks for.
      stall();
      return false;
    }
    const auto d = q.reader.peek_at(k);
    if (!d) {
      // A glitching dual-port RAM read (kDpramStale) can return a stale
      // head word here, making the queue look shorter than the
      // eligibility scan saw an instant ago. Nothing has been consumed;
      // abandon the pass and re-poll instead of trusting an invariant a
      // flaky RAM read just violated.
      sim::trace_event(trace_, eng_->now(), "tx", "chain_glitch",
                       static_cast<std::uint64_t>(q.channel), k);
      const std::uint64_t ep = epoch_;
      eng_->schedule_at(eng_->now() + kFwPerDescriptor,
                        [this, ep] {
                          if (ep != epoch_ || stalled_ || active_) return;
                          active_ = true;
                          service();
                        });
      return false;
    }
    job->chain.push_back(*d);
    if ((d->flags & dpram::kDescEop) != 0) break;
  }

  // Firmware time for descriptor handling.
  const sim::Tick fw_t = i960_.reserve(
      kFwPerDescriptor * static_cast<sim::Duration>(job->chain.size()));

  // Match the driver's enqueue stamp for this channel's oldest posted PDU
  // (FIFO order per channel; rejected chains consume their stamp too).
  if (spans_ != nullptr) {
    job->t_origin = spans_->take_tx_enqueue(q.channel);
    job->t_start = fw_t;
    if (job->t_origin > 0 && fw_t >= job->t_origin) {
      spans_->record(obs::Stage::kEnqueueToDpram, fw_t - job->t_origin);
    }
  }

  // ADC descriptor validation (§3.2): the firmware polices everything an
  // untrusted application can put in a descriptor before any shared state
  // is touched. A bad buffer aborts the whole PDU and raises a typed
  // access-violation for the OS to turn into an exception.
  if (q.auth) {
    for (const auto& d : job->chain) {
      if (d.len == 0) {
        reject_chain(q, job->chain.size(), Violation::kZeroLength, d.addr, fw_t);
        return true;
      }
      if (d.len > kMaxAdcDescriptorBytes ||
          static_cast<std::uint64_t>(d.addr) + d.len > (1ull << 32)) {
        reject_chain(q, job->chain.size(), Violation::kOversizedLength, d.len,
                     fw_t);
        return true;
      }
      if (!q.owned_vcis.empty() &&
          std::find(q.owned_vcis.begin(), q.owned_vcis.end(), d.vci) ==
              q.owned_vcis.end()) {
        reject_chain(q, job->chain.size(), Violation::kBadVci, d.vci, fw_t);
        return true;
      }
      if (!q.auth(d.addr, d.len)) {
        reject_chain(q, job->chain.size(), Violation::kUnauthorizedPage,
                     d.addr, fw_t);
        return true;
      }
    }
  }

  for (const auto& d : job->chain) job->pdu_len += d.len;
  job->wire = atm::wire_len(job->pdu_len);
  if (cfg_.fixed_length_dma_tx) {
    // Every buffer rounds up to whole cells (padded with leaked adjacent
    // memory); the trailer takes its own final cell.
    job->ncells = 1;
    for (const auto& d : job->chain) {
      job->ncells += (d.len + atm::kCellPayload - 1) / atm::kCellPayload;
    }
  } else {
    job->ncells = atm::cells_for(job->pdu_len);
  }
  if (job->ncells > 0xFFFF) {
    // A corrupted length word can imply millions of cells; the 16-bit
    // cell-sequence space bounds any legitimate PDU. Reject the chain
    // rather than segmenting garbage forever.
    const std::uint32_t tail =
        q.reader.consume(static_cast<std::uint32_t>(job->chain.size()));
    q.reader.publish(tail);
    ++bad_chains_;
    ++violation_counts_[static_cast<std::size_t>(Violation::kBadChain)];
    sim::trace_event(trace_, eng_->now(), "tx", "bad_chain",
                     static_cast<std::uint64_t>(q.channel), job->ncells);
    if (violation_sink_) violation_sink_(Violation::kBadChain, q.channel);
    const std::uint64_t ep = epoch_;
    eng_->schedule_at(fw_t, [this, ep] {
      if (ep == epoch_) service();
    });
    return true;
  }
  job->vci = job->chain[0].vci;
  job->pdu_id = q.next_pdu_id++;
  job->serial = ++next_job_serial_;

  // Consume the chain now (so later peeks see fresh entries); the tail
  // word — the host's completion signal — is published per buffer as its
  // last byte leaves host memory.
  job->tails.resize(job->chain.size());
  for (std::size_t i = 0; i < job->chain.size(); ++i) {
    job->tails[i] = q.reader.consume(1);
  }
  job->buf_done.assign(job->chain.size(), fw_t);

  sim::trace_event(trace_, eng_->now(), "tx", "pdu_start", job->vci,
                   job->ncells);
  job_ = std::move(job);
  const std::uint64_t ep = epoch_;
  const std::uint64_t js = job_->serial;
  if (cfg_.fixed_length_dma_tx) {
    eng_->schedule_at(fw_t, [this, ep, js] {
      if (ep == epoch_ && job_ != nullptr && job_->serial == js) step_job_fixed();
    });
  } else {
    eng_->schedule_at(fw_t, [this, ep, js] {
      if (ep == epoch_ && job_ != nullptr && job_->serial == js) step_job();
    });
  }
  return true;
}

void TxProcessor::step_job() {
  Job& j = *job_;
  const std::uint32_t cells_per_dma = cfg_.double_cell_dma_tx ? 2 : 1;
  const std::uint32_t group = std::min(cells_per_dma, j.ncells - j.next_seq);

  // One firmware decision per DMA transaction group.
  sim::Tick fw_t = i960_.reserve(kFwPerDma);
  sim::Tick ready = fw_t;
  if (j.departures.size() >= kTxFifoCells) {
    ready = std::max(ready, j.departures[j.departures.size() - kTxFifoCells]);
  }

  std::vector<atm::Cell>& cells = scratch_cells_;
  cells.clear();
  cells.reserve(group);
  std::vector<std::size_t>& completed = scratch_completed_;  // descriptors finishing in this group
  completed.clear();
  std::uint32_t pending_dma_bytes = 0;
  std::uint64_t pending_end_addr = 0;
  bool have_pending = false;
  const auto flush_dma = [&] {
    if (!have_pending) return;
    ready = bus_->bus().reserve_at(
        ready, bus_->dma_read_cost(pending_dma_bytes) +
                   sim::cycles(kDmaSetupCycles, tc::kClockHz));
    ++dma_ops_;
    have_pending = false;
    pending_dma_bytes = 0;
  };
  for (std::uint32_t g = 0; g < group; ++g) {
    atm::Cell c = atm::make_cell_header(j.vci, j.pdu_id, j.next_seq + g,
                                        j.ncells, j.wire);
    std::uint32_t filled = 0;
    // User chunks of a cell accumulate into one scatter/gather DMA program,
    // executed in a single dma_gather(): faults still hit per segment
    // exactly as per-chunk reads did, and a failed segment's slice of the
    // cell goes out zero-filled — only the end-to-end checksum can expose
    // the damage. Within a cell user bytes always precede trailer bytes, so
    // the gather covers the payload prefix [0, gathered).
    scratch_segs_.clear();
    std::uint32_t gathered = 0;
    const auto flush_gather = [&] {
      if (scratch_segs_.empty()) return;
      const std::size_t okn =
          host_mem_->dma_gather(scratch_segs_, {c.payload.data(), gathered});
      if (okn < scratch_segs_.size()) {
        const std::uint64_t failed = scratch_segs_.size() - okn;
        dma_errors_ += failed;
        sim::trace_event(trace_, eng_->now(), "tx", "dma_error",
                         scratch_segs_.front().addr, failed);
      }
      j.crc.update({c.payload.data(), gathered});
      scratch_segs_.clear();
    };
    while (filled < c.len) {
      if (j.di < j.chain.size() && j.doff == j.chain[j.di].len) {
        ++j.di;
        j.doff = 0;
        continue;
      }
      if (j.di >= j.chain.size()) {
        // User bytes exhausted: emit trailer bytes (generated on board).
        // The gather must land first — the trailer CRC covers it.
        flush_gather();
        if (!j.trailer_ready) {
          j.trailer = atm::encode_trailer({j.pdu_len, j.crc.value()});
          j.trailer_ready = true;
        }
        const std::uint32_t n = std::min<std::uint32_t>(
            c.len - filled, atm::kTrailerBytes - j.trailer_off);
        std::copy_n(j.trailer.begin() + j.trailer_off, n,
                    c.payload.begin() + filled);
        j.trailer_off += n;
        filled += n;
        continue;
      }
      // Chunk bounded by cell space, buffer end, and the page boundary
      // (§2.5.2's DMA-stop modification).
      const std::uint32_t addr = j.chain[j.di].addr + j.doff;
      std::uint32_t n = std::min(c.len - filled, j.chain[j.di].len - j.doff);
      const std::uint32_t to_page = mem::kPageSize - mem::page_offset(addr);
      if (to_page < n) n = to_page;
      scratch_segs_.push_back(mem::PhysBuffer{addr, n});
      // One DMA transaction per contiguous address run within the group;
      // every break (buffer end, page boundary) costs a fresh transaction
      // (§2.5.2's second-address mechanism).
      if (have_pending && addr == pending_end_addr) {
        pending_dma_bytes += n;
      } else {
        if (have_pending) {
          flush_dma();
          ++dma_splits_;
        }
        pending_dma_bytes = n;
        have_pending = true;
      }
      pending_end_addr = static_cast<std::uint64_t>(addr) + n;
      filled += n;
      gathered += n;
      j.doff += n;
      if (j.doff == j.chain[j.di].len) completed.push_back(j.di);
    }
    flush_gather();
    cells.push_back(c);
  }
  flush_dma();
  for (const std::size_t idx : completed) j.buf_done[idx] = ready;

  // Hand the cells to the link in order: a cell's handover to the cell
  // generator never precedes an earlier cell's handover (but lanes still
  // clock out in parallel).
  const sim::Tick handover = std::max(ready, j.handover_floor);
  j.handover_floor = handover;
  sim::Tick dep = 0;
  for (auto& c : cells) {
    c.t_origin = j.t_origin;
    dep = link_->submit(handover, c);
    j.departures.push_back(dep);
    ++cells_sent_;
  }
  j.next_seq += group;

  if (j.next_seq < j.ncells) {
    // The firmware prepares the next DMA command while the current one
    // runs, but the controller's command queue is shallow: allow at most
    // ~two transactions of bus time to be booked ahead.
    const sim::Duration lookahead = 2 * bus_->dma_read_cost(group * atm::kCellPayload);
    sim::Tick next = std::max(fw_t, ready > lookahead ? ready - lookahead : 0);
    next = std::max(next, eng_->now());
    const std::uint64_t ep = epoch_;
    const std::uint64_t js = j.serial;
    eng_->schedule_at(next, [this, ep, js] {
      if (ep == epoch_ && job_ != nullptr && job_->serial == js) step_job();
    });
    return;
  }

  finish_job(dep);
}

void TxProcessor::finish_job(sim::Tick last_dep) {
  // PDU finished: publish tails in order at each buffer's completion.
  Job& j = *job_;
  const std::size_t qidx = j.queue_idx;
  sim::Tick prev_pub = eng_->now();
  for (std::size_t i = 0; i < j.chain.size(); ++i) {
    sim::Tick at = std::max(j.buf_done[i], prev_pub);
    if (at < eng_->now()) at = eng_->now();
    prev_pub = at;
    const std::uint32_t tail_val = j.tails[i];
    const std::uint64_t ep = epoch_;
    eng_->schedule_at(at, [this, qidx, tail_val, ep] {
      // A pre-reset publish would clobber the re-initialized tail word; a
      // publish for a since-detached queue would scribble on a dpram page
      // that a reopened channel may have re-registered.
      if (ep != epoch_ || queues_[qidx].detached) return;
      queues_[qidx].reader.publish(tail_val);
      check_half_empty(queues_[qidx], eng_->now());
    });
  }
  ++pdus_sent_;
  if (spans_ != nullptr && j.t_start > 0 && last_dep >= j.t_start) {
    spans_->record(obs::Stage::kSegment, last_dep - j.t_start);
  }
  sim::trace_event(trace_, eng_->now(), "tx", "pdu_done", j.vci, j.pdu_len);
  job_.reset();
  const std::uint64_t ep = epoch_;
  eng_->schedule_at(std::max({last_dep, prev_pub, eng_->now()}),
                    [this, ep] {
                      if (ep == epoch_) service();
                    });
}

void TxProcessor::step_job_fixed() {
  Job& j = *job_;

  sim::Tick fw_t = i960_.reserve(kFwPerDma);
  sim::Tick ready = fw_t;
  if (j.departures.size() >= kTxFifoCells) {
    ready = std::max(ready, j.departures[j.departures.size() - kTxFifoCells]);
  }

  atm::Cell c;
  c.vci = j.vci;
  c.pdu_id = j.pdu_id;
  c.seq = static_cast<std::uint16_t>(j.next_seq);
  c.flags = 0;
  if (j.next_seq == 0) c.flags |= atm::kFlagBom;
  if (j.next_seq + atm::kLanes >= j.ncells) c.flags |= atm::kFlagLaneEom;
  if (j.next_seq + 1 == j.ncells) c.flags |= atm::kFlagLastCell;

  if (j.di < j.chain.size()) {
    // One fixed-length transfer from a single address. If the buffer ends
    // mid-cell the transfer keeps going into whatever physical memory
    // follows it — the §2.5.2 security leak.
    const dpram::Descriptor& buf = j.chain[j.di];
    const std::uint32_t addr = buf.addr + j.doff;
    const std::uint32_t have = buf.len - j.doff;
    const std::uint32_t n = std::min<std::uint32_t>(have, atm::kCellPayload);
    c.len = atm::kCellPayload;
    if (!host_mem_->dma_read(addr, {c.payload.data(), n})) {
      std::fill_n(c.payload.begin(), n, std::uint8_t{0});
      ++dma_errors_;
      sim::trace_event(trace_, eng_->now(), "tx", "dma_error", addr, n);
    }
    j.crc.update({c.payload.data(), n});
    if (n < atm::kCellPayload) {
      const std::uint32_t want = atm::kCellPayload - n;
      const std::uint64_t end = static_cast<std::uint64_t>(buf.addr) + buf.len;
      const auto leak = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          want, host_mem_->size() > end ? host_mem_->size() - end : 0));
      if (leak > 0) {
        host_mem_->read(static_cast<std::uint32_t>(end),
                        {c.payload.data() + n, leak});
      }
      std::fill(c.payload.begin() + n + leak, c.payload.end(), 0);
      ++leaked_cells_;
      leaked_bytes_ += want;
    }
    ready = bus_->bus().reserve_at(
        ready, bus_->dma_read_cost(atm::kCellPayload) +
                   sim::cycles(kDmaSetupCycles, tc::kClockHz));
    ++dma_ops_;
    j.doff += n;
    if (j.doff == buf.len) {
      j.buf_done[j.di] = ready;
      ++j.di;
      j.doff = 0;
    }
  } else {
    // Trailer cell (board-generated, no DMA).
    const auto trailer = atm::encode_trailer({j.pdu_len, j.crc.value()});
    c.len = atm::kTrailerBytes;
    std::copy(trailer.begin(), trailer.end(), c.payload.begin());
  }

  c.t_origin = j.t_origin;
  const sim::Tick handover = std::max(ready, j.handover_floor);
  j.handover_floor = handover;
  const sim::Tick dep = link_->submit(handover, c);
  j.departures.push_back(dep);
  ++cells_sent_;
  ++j.next_seq;

  if (j.next_seq < j.ncells) {
    const sim::Duration lookahead = 2 * bus_->dma_read_cost(atm::kCellPayload);
    sim::Tick next = std::max(fw_t, ready > lookahead ? ready - lookahead : 0);
    next = std::max(next, eng_->now());
    const std::uint64_t ep = epoch_;
    const std::uint64_t js = j.serial;
    eng_->schedule_at(next, [this, ep, js] {
      if (ep == epoch_ && job_ != nullptr && job_->serial == js) step_job_fixed();
    });
    return;
  }
  finish_job(dep);
}

}  // namespace osiris::board
