#include "host/driver.h"

#include <algorithm>
#include <stdexcept>

#include "board/rx.h"

namespace osiris::host {

namespace {
// Dual-port-RAM word accesses per queue operation (see dpram/queue.cc):
// push = 1 read (tail) + 5 writes; pop = 5 reads + 1 write.
constexpr std::uint32_t kPushReads = 1, kPushWrites = 5;
constexpr std::uint32_t kPopReads = 5, kPopWrites = 1;

// Invalidating the cache costs about a cycle per word (§2.3), and eager
// invalidation adds 0.45 cycles per word of induced misses; the same on
// both machines.
constexpr double kInvalidateCyclesPerWord = 1.0;
constexpr double kInvalidateExtraCyclesPerWord = 0.45;

// Main-memory words the software path touches per PDU (headers,
// descriptors, protocol state), apart from its per-KB traffic.
constexpr std::uint32_t kMemWordsFixedTx = 150;
constexpr std::uint32_t kMemWordsFixedRx = 150;

std::uint32_t kb_of(std::uint32_t bytes) { return (bytes + 1023) / 1024; }

// Splits PDU bytes [off, off + out.size()) at buffer boundaries and hands
// each piece to `read(pa, dst)`; throws when the buffers end first.
template <class Read>
void walk_pdu(const std::vector<RxBuffer>& bufs, std::uint32_t off,
              std::span<std::uint8_t> out, Read&& read) {
  std::size_t done = 0;
  std::uint32_t base = 0;
  for (const RxBuffer& b : bufs) {
    if (done == out.size()) break;
    if (off < base + b.len) {
      const std::uint32_t inner = off > base ? off - base : 0;
      const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          out.size() - done, b.len - inner));
      read(b.pa + inner, out.subspan(done, n));
      done += n;
      off += n;
    }
    base += b.len;
  }
  if (done != out.size()) throw std::out_of_range("RxPduView: read past the PDU");
}
}  // namespace

void RxPduView::read_raw(const mem::PhysicalMemory& pm, std::uint32_t off,
                         std::span<std::uint8_t> out) const {
  walk_pdu(bufs, off, out,
           [&](std::uint32_t pa, std::span<std::uint8_t> dst) { pm.read(pa, dst); });
}

void RxPduView::read_cached(mem::DataCache& cache, std::uint32_t off,
                            std::span<std::uint8_t> out,
                            mem::AccessCost& cost) const {
  walk_pdu(bufs, off, out, [&](std::uint32_t pa, std::span<std::uint8_t> dst) {
    cost += cache.cpu_read(pa, dst);
  });
}

OsirisDriver::OsirisDriver(sim::Engine& eng, const MachineConfig& mc,
                           HostCpu& cpu, InterruptController& intc,
                           tc::TurboChannel& bus, mem::PhysicalMemory& pm,
                           mem::DataCache& cache, mem::FrameAllocator& frames,
                           dpram::DualPortRam& ram, board::TxProcessor& txp,
                           const dpram::ChannelLayout& lay, Config cfg)
    : eng_(&eng),
      mc_(&mc),
      cpu_(&cpu),
      intc_(&intc),
      bus_(&bus),
      pm_(&pm),
      cache_(&cache),
      frames_(&frames),
      ram_(&ram),
      txp_(&txp),
      lay_(lay),
      cfg_(cfg),
      tx_writer_(ram, lay.tx, dpram::Side::kHost),
      free_writer_(ram, lay.free, dpram::Side::kHost),
      recv_reader_(ram, lay.recv, dpram::Side::kHost) {
  board_epoch_ = txp_->epoch();
}

OsirisDriver::~OsirisDriver() {
  *alive_ = false;
  eng_->cancel(wd_timer_);  // the engine outlives the driver; drop the tick
}

void OsirisDriver::attach(int adc_channel) {
  // Allocate the receive buffer pool: physically contiguous buffers when
  // the allocator can provide them (the driver's 16 KB buffers, §2.3),
  // falling back to page-sized buffers otherwise (§2.2's limitation).
  // One-time initialization: no time is charged (it happens at boot /
  // channel-open, outside any measured path).
  const std::uint32_t pages = (cfg_.rx_buffer_bytes + mem::kPageSize - 1) / mem::kPageSize;
  for (std::uint32_t i = 0; i < cfg_.rx_buffers; ++i) {
    if (free_writer_.full()) break;
    if (auto base = frames_->alloc_contiguous(pages)) {
      const auto id = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(BufferInfo{*base, cfg_.rx_buffer_bytes});
      free_writer_.push({*base, cfg_.rx_buffer_bytes, 0, 0, id});
    } else {
      for (std::uint32_t p = 0; p < pages && !free_writer_.full(); ++p) {
        const mem::PhysAddr pa = frames_->alloc();
        const auto id = static_cast<std::uint32_t>(buffers_.size());
        buffers_.push_back(BufferInfo{pa, mem::kPageSize});
        free_writer_.push({pa, mem::kPageSize, 0, 0, id});
      }
    }
  }

  rx_irq_token_ = intc_->add_handler(
      board::Irq::kRxNonEmpty, [this, adc_channel](sim::Tick done, int ch) {
        if (ch == adc_channel) on_rx_interrupt(done);
      });
  tx_irq_token_ = intc_->add_handler(
      board::Irq::kTxHalfEmpty, [this, adc_channel](sim::Tick done, int ch) {
        if (ch == adc_channel) on_tx_half_empty(done);
      });
  free_low_token_ = intc_->add_handler(
      board::Irq::kRxFreeLow, [this, adc_channel](sim::Tick done, int ch) {
        if (ch != adc_channel) return;
        // The firmware is starving for buffers: drain the receive ring now
        // so recycled buffers reach the free list before more PDUs drop.
        ++backpressure_events_;
        sim::trace_event(trace_, eng_->now(), "drv", "free_low",
                         static_cast<std::uint64_t>(ch), backpressure_events_);
        on_rx_interrupt(done);
      });
}

void OsirisDriver::detach() {
  if (detached_) return;
  detached_ = true;
  wd_running_ = false;
  eng_->cancel(wd_timer_);
  // Unhook first: an interrupt already raised but not yet serviced resolves
  // its handlers at service time, so removal also swallows those.
  if (rx_irq_token_ >= 0) intc_->remove_handler(rx_irq_token_);
  if (tx_irq_token_ >= 0) intc_->remove_handler(tx_irq_token_);
  if (free_low_token_ >= 0) intc_->remove_handler(free_low_token_);
  rx_irq_token_ = tx_irq_token_ = free_low_token_ = -1;
  // Kill in-flight drain steps and stale completions.
  ++generation_;
  draining_ = false;
  tx_suspended_ = false;
  pending_sends_.clear();
  for (const auto& bufs : inflight_tx_) wiring_.unwire_buffers(bufs);
  inflight_tx_.clear();
  accum_.clear();
  // Return the pool frames attach() allocated. Board-side queues must be
  // detached by now, so no DMA can target them.
  for (const BufferInfo& b : buffers_) {
    const std::uint32_t pages = (b.cap + mem::kPageSize - 1) / mem::kPageSize;
    for (std::uint32_t p = 0; p < pages; ++p) {
      frames_->free(b.pa + p * mem::kPageSize);
    }
  }
  buffers_.clear();
  sim::trace_event(trace_, eng_->now(), "drv", "detach", generation_, 0);
}

sim::Tick OsirisDriver::reap_tx(sim::Tick at) {
  // "The driver checks for this condition as part of other driver
  // activity" (§2.1.2): tail advances tell us which buffers the board is
  // done with; unwire their pages.
  sim::Tick t = cpu_->pio(at, 1, 0);  // read the tail word
  const std::uint32_t done_descs =
      static_cast<std::uint32_t>(inflight_tx_.size()) -
      std::min<std::uint32_t>(static_cast<std::uint32_t>(inflight_tx_.size()),
                              tx_writer_.size());
  tx_descs_retired_ += done_descs;
  for (std::uint32_t i = 0; i < done_descs; ++i) {
    const auto bufs = std::move(inflight_tx_.front());
    inflight_tx_.pop_front();
    std::uint32_t pages = 0;
    for (const auto& b : bufs) {
      pages += mem::page_of(b.addr + b.len - 1) - mem::page_of(b.addr) + 1;
    }
    wiring_.unwire_buffers(bufs);
    const sim::Duration cost = (cfg_.wiring == mem::WiringMode::kFastPath
                                    ? mc_->page_wire_fast
                                    : mc_->page_wire_slow) *
                               static_cast<sim::Duration>(pages) / 2;
    t = cpu_->exec(t, Work{cost, 0});
  }
  return t;
}

sim::Tick OsirisDriver::push_chain(sim::Tick at, atm::Vci vci,
                                   const std::vector<mem::PhysBuffer>& bufs) {
  sim::Tick t = at;
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    t = cpu_->pio(t, 1, 0);  // read tail: full check
    if (tx_writer_.full()) {
      // §2.1.2: suspend transmit activity, ask for the half-empty irq.
      const std::uint32_t ctrl =
          ram_->read(dpram::Side::kHost, lay_.tx.ctrl_word());
      ram_->write(dpram::Side::kHost, lay_.tx.ctrl_word(),
                  ctrl | dpram::kCtrlWantHalfEmptyIrq);
      t = cpu_->pio(t, 1, 1);
      tx_suspended_ = true;
      ++tx_suspensions_;
      sim::trace_event(trace_, eng_->now(), "drv", "tx_suspend", vci,
                       pending_sends_.size());
      pending_sends_.push_front(
          PendingSend{vci, {bufs.begin() + static_cast<std::ptrdiff_t>(i),
                            bufs.end()}});
      return t;
    }
    dpram::Descriptor d;
    d.addr = bufs[i].addr;
    d.len = bufs[i].len;
    d.vci = vci;
    d.flags = (i + 1 == bufs.size()) ? dpram::kDescEop : 0;
    tx_writer_.push(d);
    t = cpu_->pio(t, kPushReads, kPushWrites);
    inflight_tx_.push_back({bufs[i]});
  }
  // Doorbell.
  t = cpu_->pio(t, 0, 1);
  eng_->schedule_at(t, [this, alive = alive_] {
    if (*alive) txp_->kick();
  });
  return t;
}

sim::Tick OsirisDriver::post_raw(sim::Tick at, const dpram::Descriptor& d) {
  sim::Tick t = cpu_->pio(maybe_resync(at), 1, 0);  // tail read (full check)
  if (tx_writer_.full()) return t;
  tx_writer_.push(d);
  t = cpu_->pio(t, kPushReads, kPushWrites);
  // Keep the completion ledger aligned with the queue: the board consumes
  // the descriptor whether it accepts or rejects it, advancing the tail.
  inflight_tx_.push_back({});
  ++tx_descs_accepted_;
  t = cpu_->pio(t, 0, 1);  // doorbell
  eng_->schedule_at(t, [this, alive = alive_] {
    if (*alive) txp_->kick();
  });
  return t;
}

sim::Tick OsirisDriver::send(sim::Tick at, atm::Vci vci,
                             const std::vector<mem::PhysBuffer>& bufs) {
  sim::Tick t = reap_tx(maybe_resync(at));

  // Wire every page the board will DMA from (§2.4).
  std::uint32_t pages = 0;
  for (const auto& b : bufs) {
    pages += mem::page_of(b.addr + b.len - 1) - mem::page_of(b.addr) + 1;
  }
  wiring_.wire_buffers(bufs);
  const sim::Duration wire_cost =
      (cfg_.wiring == mem::WiringMode::kFastPath ? mc_->page_wire_fast
                                                 : mc_->page_wire_slow) *
      static_cast<sim::Duration>(pages);

  std::uint32_t bytes = 0;
  for (const auto& b : bufs) bytes += b.len;
  const Work w{
      mc_->driver_tx_pdu + wire_cost +
          mc_->driver_tx_buffer * static_cast<sim::Duration>(bufs.size()) +
          mc_->per_kb_compute * kb_of(bytes) / 2,
      kMemWordsFixedTx +
          static_cast<std::uint64_t>(mc_->mem_words_per_kb) * kb_of(bytes) / 2};
  t = cpu_->exec(t, w);

  ++pdus_sent_;
  // Span origin: the moment the host asked the driver to transmit. Parked
  // sends (full queue) replay in FIFO order, so the stamp still meets its
  // own chain at the firmware.
  if (spans_ != nullptr) spans_->tx_enqueued(span_channel_, at);
  tx_descs_accepted_ += bufs.size();
  if (tx_suspended_) {
    pending_sends_.push_back(PendingSend{vci, bufs});
    return t;
  }
  return push_chain(t, vci, bufs);
}

void OsirisDriver::on_tx_half_empty(sim::Tick at) {
  tx_suspended_ = false;
  sim::Tick t = at;
  while (!pending_sends_.empty() && !tx_suspended_) {
    PendingSend ps = std::move(pending_sends_.front());
    pending_sends_.pop_front();
    t = push_chain(t, ps.vci, ps.bufs);
  }
  if (!tx_suspended_ && tx_resume_) {
    auto cb = std::move(tx_resume_);
    tx_resume_ = nullptr;
    cb(t);
  }
}

void OsirisDriver::on_rx_interrupt(sim::Tick at) {
  at = maybe_resync(at);
  if (draining_) return;  // thread already active
  draining_ = true;
  const sim::Tick t = cpu_->exec(at, Work{mc_->thread_dispatch, 0});
  const std::uint64_t gen = generation_;
  eng_->schedule_at(t, [this, gen, alive = alive_] {
    if (*alive && gen == generation_) drain_step(eng_->now());
  });
}

void OsirisDriver::drain_step(sim::Tick at) {
  sim::Tick t = cpu_->pio(at, kPopReads, kPopWrites);
  const auto d = recv_reader_.pop();
  if (!d) {
    draining_ = false;
    return;
  }
  t = cpu_->exec(t, Work{mc_->driver_rx_buffer, 0});

  // Sanity-check the descriptor against the driver's own buffer table: a
  // corrupted id/addr/len would otherwise send upper layers reading (or
  // the recycler pushing) memory the pool doesn't own.
  const std::uint64_t gen0 = generation_;
  if (d->user >= buffers_.size() ||
      d->addr < buffers_[d->user].pa || d->len > buffers_[d->user].cap ||
      static_cast<std::uint64_t>(d->addr) + d->len >
          static_cast<std::uint64_t>(buffers_[d->user].pa) +
              buffers_[d->user].cap) {
    ++bad_descriptors_;
    sim::trace_event(trace_, eng_->now(), "drv", "bad_desc", d->user, d->addr);
    if (d->user < buffers_.size()) {
      // The id is plausible: return the buffer it names to its pool.
      t = recycle(t, {RxBuffer{buffers_[d->user].pa, 0, d->user}});
    }
    eng_->schedule_at(t, [this, gen0, alive = alive_] {
      if (*alive && gen0 == generation_) drain_step(eng_->now());
    });
    return;
  }

  const auto tag = static_cast<std::uint32_t>((d->flags >> dpram::kDescTagShift) &
                                              dpram::kDescTagMask);
  const std::uint64_t key = atm::VciKey::pack(d->vci, tag);

  if ((d->flags & dpram::kDescAborted) != 0) {
    // The firmware abandoned this reassembly (cells lost upstream and the
    // timeout expired): recycle the buffer — plus whatever partial
    // accumulation already arrived under the same tag — without delivering.
    ++stale_partial_;
    std::vector<RxBuffer> give{RxBuffer{d->addr, 0, d->user}};
    if (Accum* acc = accum_.find(key); acc != nullptr) {
      give.insert(give.end(), acc->bufs.begin(), acc->bufs.end());
      accum_.erase(key);
    }
    t = recycle(t, give);
    eng_->schedule_at(t, [this, gen0, alive = alive_] {
      if (*alive && gen0 == generation_) drain_step(eng_->now());
    });
    return;
  }

  auto [acc, fresh] = accum_.insert(key);
  if (fresh) acc->seq = ++accum_seq_;
  acc->bufs.push_back(RxBuffer{d->addr, d->len, d->user});
  acc->bytes += d->len;

  if ((d->flags & dpram::kDescEop) != 0) {
    Accum done = std::move(*acc);
    accum_.erase(key);
    t = deliver(t, d->vci, tag, std::move(done));
  } else if (accum_.size() > 64) {
    // Partial PDUs that never completed (dropped upstream): reclaim the
    // oldest (smallest arrival stamp) to avoid leaking the buffer pool.
    std::uint64_t oldest_key = 0;
    std::uint64_t oldest_seq = ~std::uint64_t{0};
    accum_.for_each([&](std::uint64_t k, const Accum& a) {
      if (a.seq < oldest_seq) {
        oldest_seq = a.seq;
        oldest_key = k;
      }
    });
    ++stale_partial_;
    t = recycle(t, accum_.find(oldest_key)->bufs);
    accum_.erase(oldest_key);
  }

  eng_->schedule_at(t, [this, gen0, alive = alive_] {
    if (*alive && gen0 == generation_) drain_step(eng_->now());
  });
}

sim::Tick OsirisDriver::deliver(sim::Tick at, atm::Vci vci,
                                std::uint32_t tag, Accum&& acc) {
  sim::Tick t = at;
  if (acc.bytes < atm::kTrailerBytes) {
    ++runt_pdus_;
    if (spans_ != nullptr) {
      spans_->rx_aborted(vci, static_cast<std::uint8_t>(tag));
    }
    return recycle(t, acc.bufs);
  }
  RxPduView view;
  view.vci = vci;
  view.wire_len = acc.bytes;
  view.pdu_len = acc.bytes - atm::kTrailerBytes;
  view.bufs = acc.bufs;

  if (cfg_.eager_invalidate) {
    // Figure 2's pessimistic mode: invalidate every received byte up
    // front. Costs ~1 cycle/word plus the induced misses (§2.3).
    std::uint64_t words = 0;
    for (const auto& b : view.bufs) words += cache_->invalidate(b.pa, b.len);
    t = cpu_->exec(
        t, Work{mc_->cpu_cycles(static_cast<double>(words) *
                                (kInvalidateCyclesPerWord +
                                 kInvalidateExtraCyclesPerWord)),
                0});
  }

  const std::uint32_t kb = kb_of(view.pdu_len);
  t = cpu_->exec(t, Work{mc_->driver_rx_pdu + mc_->per_kb_compute * kb / 2,
                         kMemWordsFixedRx +
                             static_cast<std::uint64_t>(mc_->mem_words_per_kb) *
                                 kb / 2});

  ++pdus_received_;
  // Delivery closes the span: deliver stage (push -> here) plus the
  // end-to-end distribution when the origin stamp survived.
  if (spans_ != nullptr) {
    spans_->rx_delivered(vci, static_cast<std::uint8_t>(tag), t);
  }
  sim::trace_event(trace_, eng_->now(), "drv", "deliver", vci, view.pdu_len);
  if (rx_handler_) t = rx_handler_(t, view);
  return recycle(t, view.bufs);  // empty if the handler retained them
}

sim::Tick OsirisDriver::recycle(sim::Tick at, const std::vector<RxBuffer>& bufs) {
  sim::Tick t = at;
  for (const RxBuffer& rb : bufs) {
    if (rb.id >= buffers_.size()) {
      // Corrupted descriptor id: no way to know which buffer this names;
      // count it and press on rather than wedging the driver thread.
      ++bad_descriptors_;
      sim::trace_event(trace_, eng_->now(), "drv", "bad_desc", rb.id, rb.len);
      continue;
    }
    const BufferInfo& info = buffers_[rb.id];
    if (fault::fires(tenant_faults_, fault::Point::kAdcRefillStall)) {
      // The application stops returning receive buffers: this one simply
      // never goes back to the free queue. Sustained, the channel starves
      // itself (drops accounted on the board as drop_nobuf) — and only
      // itself.
      sim::trace_event(trace_, eng_->now(), "drv", "refill_stall", rb.id, 0);
      continue;
    }
    dpram::Descriptor d{info.pa, info.cap, 0, 0, rb.id};
    if (fault::fires(tenant_faults_, fault::Point::kAdcFreeListPoison)) {
      // The application scribbles on the free-queue entry it recycles:
      // either an impossible length or a bit-flipped address. The board's
      // free-list validation must catch it before any DMA is aimed at it.
      if (tenant_faults_->roll(2) == 0) {
        d.len = 0;
      } else {
        d.addr = tenant_faults_->corrupt_word(d.addr) | 0x80000000u;
      }
      sim::trace_event(trace_, eng_->now(), "drv", "free_poison", rb.id,
                       d.addr);
    }
    t = cpu_->pio(t, kPushReads, kPushWrites);
    if (!free_writer_.push(d).ok) {
      // Double-release (e.g. a handler returning buffers it retained from
      // before an adaptor reset, after the pool was re-posted wholesale).
      ++bad_descriptors_;
      sim::trace_event(trace_, eng_->now(), "drv", "free_overflow", rb.id, 0);
    }
  }
  return t;
}

void OsirisDriver::start_watchdog(sim::Duration period, sim::Duration deadline,
                                  sim::Tick until) {
  wd_period_ = period;
  wd_deadline_ = deadline;
  wd_until_ = until;
  wd_tx_hb_ = wd_rx_hb_ = 0;
  wd_tx_seen_ = wd_rx_seen_ = false;
  wd_tx_change_ = wd_rx_change_ = eng_->now();
  wd_txtail_ = 0;
  wd_txtail_change_ = eng_->now();
  if (!wd_running_) {
    wd_running_ = true;
    wd_timer_ = eng_->schedule_timer(0, [this, alive = alive_] {
      if (*alive) watchdog_tick();
    });
  }
}

void OsirisDriver::watchdog_tick() {
  if (!wd_running_) return;
  const sim::Tick now = eng_->now();
  if (now >= wd_until_) {
    wd_running_ = false;
    return;
  }

  // Four PIO reads over the TURBOchannel: both heartbeat words, the
  // transmit tail, and the receive head (the poll's empty check).
  sim::Tick t = cpu_->pio(now, 4, 0);
  const std::uint32_t txhb =
      ram_->read(dpram::Side::kHost, dpram::kTxHeartbeatWord);
  const std::uint32_t rxhb =
      ram_->read(dpram::Side::kHost, dpram::kRxHeartbeatWord);

  // A heartbeat is only trusted once it has been seen to move: before the
  // firmware's first beat a frozen zero is indistinguishable from boot.
  const auto frozen = [&](std::uint32_t cur, std::uint32_t& last,
                          sim::Tick& change, bool& seen) {
    if (cur != last) {
      last = cur;
      change = now;
      seen = true;
      return false;
    }
    return seen && now - change > wd_deadline_;
  };
  const bool tx_hb_wedged = frozen(txhb, wd_tx_hb_, wd_tx_change_, wd_tx_seen_);
  const bool rx_hb_wedged = frozen(rxhb, wd_rx_hb_, wd_rx_change_, wd_rx_seen_);

  // Independent wedge signature: descriptors sitting in the transmit
  // queue while the tail stops advancing (catches a firmware that still
  // beats but no longer makes progress, e.g. a corrupted-EOP chain the
  // priority scan can never complete).
  const std::uint32_t txtail =
      ram_->read(dpram::Side::kHost, lay_.tx.tail_word());
  bool tx_tail_wedged = false;
  if (txtail != wd_txtail_ || tx_writer_.size() == 0) {
    wd_txtail_ = txtail;
    wd_txtail_change_ = now;
  } else if (now - wd_txtail_change_ > wd_deadline_) {
    tx_tail_wedged = true;
  }

  if (fault::fires(faults_, fault::Point::kIrqSpurious)) {
    ++spurious_irqs_;
    sim::trace_event(trace_, now, "drv", "spurious_irq", generation_, 0);
    on_rx_interrupt(t);
  }

  if (tx_hb_wedged || rx_hb_wedged || tx_tail_wedged) {
    sim::trace_event(trace_, now, "drv", "wedge",
                     (tx_hb_wedged ? 1u : 0u) | (rx_hb_wedged ? 2u : 0u) |
                         (tx_tail_wedged ? 4u : 0u),
                     txhb);
    t = force_reset(t);
  } else if (!draining_ && !recv_reader_.empty()) {
    // Descriptors are waiting but no drain thread is running: the
    // empty->non-empty interrupt was lost. Start the drain by hand.
    ++watchdog_polls_;
    sim::trace_event(trace_, now, "drv", "wd_poll", recv_reader_.size(), 0);
    on_rx_interrupt(t);
  }

  wd_timer_ = eng_->schedule_timer(wd_period_, [this, alive = alive_] {
    if (*alive) watchdog_tick();
  });
}

sim::Tick OsirisDriver::force_reset(sim::Tick at) {
  ++watchdog_resets_;
  ++generation_;
  sim::trace_event(trace_, eng_->now(), "drv", "reset", generation_, 0);

  // Reset both board halves (all channels' board-side cursors and RAM
  // words are zeroed — other channel drivers on this board resynchronize
  // through their own maybe_resync generation check), then rebuild this
  // driver's host-side state.
  txp_->reset();
  if (rxp_ != nullptr) rxp_->reset();
  board_epoch_ = txp_->epoch();
  const sim::Tick t = resync_host_state(at);

  // Fresh deadline for the rebooted firmware's first beat.
  wd_tx_seen_ = wd_rx_seen_ = false;
  wd_tx_change_ = wd_rx_change_ = wd_txtail_change_ = eng_->now();
  wd_txtail_ = 0;
  return t;
}

sim::Tick OsirisDriver::maybe_resync(sim::Tick at) {
  if (detached_ || txp_->epoch() == board_epoch_) return at;
  // Another driver's watchdog (in practice: the kernel's) reset the board
  // under us. Every cached cursor, in-flight chain and posted free buffer
  // of this channel is stale; completions scheduled before the reset must
  // die at the generation check.
  board_epoch_ = txp_->epoch();
  ++resyncs_observed_;
  ++generation_;
  sim::trace_event(trace_, eng_->now(), "drv", "resync", generation_,
                   board_epoch_);
  return resync_host_state(at);
}

sim::Tick OsirisDriver::resync_host_state(sim::Tick at) {
  // Reinitialize every host-side queue cursor (both ends cache positions
  // in host registers; RAM words and caches must be cleared together or
  // they disagree after the reset).
  tx_writer_.reset();
  free_writer_.reset();
  recv_reader_.reset();

  // Every in-flight transmit chain is gone with the board state. Their
  // descriptors will never retire through the tail word, so credit them
  // here or tx-completion watermarks would stall forever.
  tx_descs_retired_ += inflight_tx_.size();
  for (const auto& bufs : inflight_tx_) wiring_.unwire_buffers(bufs);
  inflight_tx_.clear();
  tx_suspended_ = false;
  draining_ = false;
  accum_.clear();

  // Upper layers forget retained buffers and partial reassembly before
  // the pool is re-posted wholesale below.
  for (const auto& [token, hook] : reset_hooks_) hook(at);

  sim::Tick t = cpu_->exec(at, Work{mc_->thread_dispatch, 0});
  for (std::uint32_t id = 0; id < buffers_.size(); ++id) {
    const BufferInfo& info = buffers_[id];
    if (free_writer_.full()) continue;
    t = cpu_->pio(t, kPushReads, kPushWrites);
    free_writer_.push({info.pa, info.cap, 0, 0, id});
  }

  // Replay sends that were parked behind a full transmit queue. (Chains
  // that were already in the queue are lost — ARQ's problem, not ours.)
  std::deque<PendingSend> replay = std::move(pending_sends_);
  pending_sends_.clear();
  while (!replay.empty() && !tx_suspended_) {
    PendingSend ps = std::move(replay.front());
    replay.pop_front();
    t = push_chain(t, ps.vci, ps.bufs);
  }
  for (auto& ps : replay) pending_sends_.push_back(std::move(ps));
  return t;
}

sim::Tick OsirisDriver::recover_stale(sim::Tick at, const RxPduView& pdu) {
  std::uint64_t words = 0;
  for (const auto& b : pdu.bufs) words += cache_->invalidate(b.pa, b.len);
  ++checksum_invalidations_;
  return cpu_->exec(
      at, Work{mc_->cpu_cycles(static_cast<double>(words) *
                               kInvalidateCyclesPerWord),
               0});
}

}  // namespace osiris::host
