#include "board/rx.h"

#include <algorithm>
#include <stdexcept>

#include "atm/sar.h"

namespace osiris::board {

RxProcessor::RxProcessor(sim::Engine& eng, const BoardConfig& cfg,
                         tc::TurboChannel& bus, mem::DataCache& cache,
                         dpram::DualPortRam& ram)
    : eng_(&eng),
      cfg_(cfg),
      bus_(&bus),
      cache_(&cache),
      ram_(&ram),
      i960_(eng, "rx.i960") {}

int RxProcessor::add_free_source(const dpram::QueueLayout& lay, PageAuth auth,
                                 int channel_id) {
  free_sources_.push_back(FreeSource{
      dpram::QueueReader(*ram_, lay, dpram::Side::kBoard), std::move(auth),
      channel_id, false, 0});
  return static_cast<int>(free_sources_.size()) - 1;
}

int RxProcessor::add_recv_channel(const dpram::QueueLayout& lay, int channel_id) {
  recv_channels_.push_back(RecvChannel{
      dpram::QueueWriter(*ram_, lay, dpram::Side::kBoard), channel_id, 0,
      false});
  return static_cast<int>(recv_channels_.size()) - 1;
}

RxProcessor::VciState& RxProcessor::state_insert(atm::Vci vci) {
  return *flows_.insert(vci).first;
}

void RxProcessor::maybe_release(atm::Vci vci, VciState& st) {
  if (st.flags == 0 && st.quota == 0 && st.held == 0 && st.router == nullptr) {
    flows_.erase(vci);
  }
}

void RxProcessor::set_vci_quota(atm::Vci vci, std::uint32_t max_buffers) {
  if (max_buffers == 0) {
    VciState* st = flows_.find(vci);
    if (st != nullptr) {
      st->quota = 0;
      maybe_release(vci, *st);
    }
  } else {
    state_insert(vci).quota = max_buffers;
  }
}

std::uint32_t RxProcessor::quota_for(atm::Vci vci) const {
  const VciState* st = flows_.find(vci);
  return st != nullptr && st->quota != 0 ? st->quota
                                         : cfg_.rx_vci_buffer_quota;
}

void RxProcessor::release_quota(atm::Vci vci, std::size_t held) {
  if (held == 0) return;
  VciState* st = flows_.find(vci);
  if (st == nullptr) return;
  st->held -= std::min<std::uint32_t>(st->held,
                                      static_cast<std::uint32_t>(held));
  if (st->held == 0) maybe_release(vci, *st);
}

void RxProcessor::abort_pdu_buffers(std::uint64_t key, RxPdu& p) {
  // Hand the buffers this PDU is sitting on back to the host: each
  // still-held buffer goes up as an aborted descriptor, which the driver
  // recycles (together with any partial accumulation under the same tag)
  // instead of delivering. Without this, drops under sustained overload
  // would pin the receive pool in dead reassemblies.
  const atm::Vci vci = atm::VciKey::vci_of(key);
  const sim::Tick now = eng_->now();
  for (std::uint32_t i = p.next_push;
       i < static_cast<std::uint32_t>(p.bufs.size()); ++i) {
    push_buffer(p, i, /*eop=*/true, key, vci, now, dpram::kDescAborted);
  }
}

void RxProcessor::remove_channel(int channel_id) {
  for (auto& fs : free_sources_) {
    if (fs.channel_id == channel_id) fs.detached = true;
  }
  for (std::size_t i = 0; i < recv_channels_.size(); ++i) {
    RecvChannel& ch = recv_channels_[i];
    if (ch.channel_id != channel_id || ch.detached) continue;
    ch.detached = true;
    // Discard reassembly state headed for the dead channel; its buffers
    // belong to an address space being torn down, not to the free pool.
    if (pending_.valid) {
      const RxPdu* p = pdus_.find(pending_.key);
      if (p != nullptr && p->recv_idx == static_cast<int>(i)) {
        pending_.valid = false;
      }
    }
    pdus_.erase_if([this, i](std::uint64_t, RxPdu& p) {
      if (p.recv_idx != static_cast<int>(i)) return false;
      release_quota(p.vci, p.bufs.size());
      return true;
    });
    sim::trace_event(trace_, eng_->now(), "rx", "channel_detach",
                     static_cast<std::uint64_t>(channel_id), i);
  }
}

bool RxProcessor::channel_attached(int channel_id) const {
  for (const RecvChannel& ch : recv_channels_) {
    if (ch.channel_id == channel_id && !ch.detached) return true;
  }
  return false;
}

std::uint64_t RxProcessor::channel_buffers(int channel_id) const {
  std::uint64_t n = 0;
  for (const FreeSource& fs : free_sources_) {
    if (fs.channel_id == channel_id) n += fs.buffers_consumed;
  }
  return n;
}

void RxProcessor::quarantine_vci(atm::Vci vci) {
  VciState& st = state_insert(vci);
  st.flags |= VciState::kQuarantined;
  st.router.reset();
  if (pending_.valid && atm::VciKey::vci_of(pending_.key) == vci) {
    pending_.valid = false;
  }
  pdus_.erase_if([this, vci](std::uint64_t key, RxPdu& p) {
    if (atm::VciKey::vci_of(key) != vci) return false;
    // Quarantine revokes the tenant's reach, not its memory: buffers its
    // half-built PDUs hold go back through the (still attached) receive
    // queue as aborted descriptors for the driver to recycle.
    abort_pdu_buffers(key, p);
    release_quota(p.vci, p.bufs.size());
    return true;
  });
  sim::trace_event(trace_, eng_->now(), "rx", "vci_quarantine", vci, 0);
}

void RxProcessor::map_vci(atm::Vci vci, int free_id, int fallback_free_id,
                          int recv_idx) {
  VciState& st = state_insert(vci);
  // A fresh kernel-established mapping lifts any quarantine left from a
  // previous owner of the VCI.
  st.flags = (st.flags | VciState::kMapped) &
             ~static_cast<std::uint32_t>(VciState::kQuarantined);
  st.free_id = free_id;
  st.fallback = fallback_free_id;
  st.recv_idx = recv_idx;
}

void RxProcessor::unmap_vci(atm::Vci vci) {
  VciState* st = flows_.find(vci);
  if (st == nullptr) return;
  st->flags &= ~static_cast<std::uint32_t>(VciState::kMapped);
  st->router.reset();
  maybe_release(vci, *st);
}

atm::CellRouter& RxProcessor::router_for(VciState& st) {
  if (st.router == nullptr) st.router = atm::make_router(cfg_.reassembly.c_str());
  return *st.router;
}

std::size_t RxProcessor::fifo_occupancy() {
  // A cell occupies the on-board FIFO from arrival until its payload's DMA
  // completes (entries are pushed by issue_dma with per-cell completion
  // times). The pending combine slot holds up to two more.
  const sim::Tick now = eng_->now();
  while (!inflight_.empty() && inflight_.front() <= now) inflight_.pop_front();
  std::size_t n = inflight_.size();
  if (pending_.valid) {
    n += (pending_.bytes.size() + atm::kCellPayload - 1) / atm::kCellPayload;
  }
  return n;
}

void RxProcessor::stall() {
  if (stalled_) return;
  stalled_ = true;
  ++stalls_;
  sim::trace_event(trace_, eng_->now(), "rx", "stall", epoch_, 0);
}

void RxProcessor::reset() {
  ++epoch_;
  stalled_ = false;
  pdus_.clear();
  pending_.valid = false;
  pending_.bytes.clear();
  open_batch_ = kNoBatch;  // pre-reset batches die at the epoch check
  eng_->cancel(flush_timer_);
  inflight_.clear();
  gen_active_ = false;
  // Reassembly and held-buffer state die with the reset; mappings, quota
  // overrides and quarantine flags are host-side policy and survive.
  flows_.for_each([this](std::uint32_t vci, VciState& st) {
    st.held = 0;
    st.router.reset();
    maybe_release(vci, st);
  });
  // reset_all, not reset: a stale head word published by a channel driver
  // the firmware cannot see would make the reborn board DMA into free
  // buffers whose owners no longer expect them.
  for (auto& fs : free_sources_) {
    fs.reader.reset_all();
    fs.low_raised = false;
  }
  for (auto& ch : recv_channels_) {
    ch.writer.reset();
    ch.push_horizon = 0;
  }
  sim::trace_event(trace_, eng_->now(), "rx", "reset", epoch_, 0);
}

void RxProcessor::start_heartbeat(sim::Duration period, sim::Tick until) {
  hb_period_ = period;
  hb_until_ = until;
  if (!hb_running_) {
    hb_running_ = true;
    eng_->schedule(0, [this] { heartbeat_step(); });
  }
}

void RxProcessor::heartbeat_step() {
  if (!hb_running_) return;
  if (eng_->now() >= hb_until_) {
    hb_running_ = false;
    return;
  }
  // The timer keeps firing while stalled — only the word freezes (which is
  // all the host watchdog can see) — so beating resumes after reset().
  if (!stalled_) {
    ram_->write(dpram::Side::kBoard, dpram::kRxHeartbeatWord, ++hb_count_);
    // Firmware housekeeping rides the heartbeat: abandon reassemblies
    // whose cells were lost upstream and return their buffers (a stalled
    // firmware can't GC — exactly why the host watchdog must reset it).
    if (cfg_.reassembly_timeout > 0) {
      purge_incomplete(cfg_.reassembly_timeout);
    }
  }
  eng_->schedule(hb_period_, [this] { heartbeat_step(); });
}

void RxProcessor::on_cell(int lane, const atm::Cell& c) {
  ++cells_received_;
  if (fault::fires(faults_, fault::Point::kBoardRxStall)) stall();
  if (stalled_) {
    ++cells_stalled_;
    return;
  }
  if (!atm::header_ok(c)) {
    // Header protection failed (or the cell was corrupted onto an unknown
    // VCI); the cell is discarded here, and the PDU it belonged to will
    // never complete.
    ++cells_bad_header_;
    return;
  }
  if (fifo_occupancy() >= cfg_.rx_fifo_depth) {
    ++cells_fifo_dropped_;
    sim::trace_event(trace_, eng_->now(), "rx", "fifo_drop", c.vci, c.seq);
    return;
  }
  // Wire stage: this cell's departure stamp to its acceptance here
  // (generator cells carry no stamp and contribute nothing).
  if (spans_ != nullptr && c.t_depart > 0 && eng_->now() >= c.t_depart) {
    spans_->record(obs::Stage::kWire, eng_->now() - c.t_depart);
  }
  accept_cell(lane, c);
}

void RxProcessor::accept_cell(int lane, const atm::Cell& c) {
  // Early demultiplexing (§3.1): ONE flow-table probe yields everything
  // the cell path needs — quarantine bit, mapping, and the router.
  VciState* st = flows_.find(c.vci);
  // Quarantined VCI (§3.2 hardening): the supervisor cut this tenant off;
  // its traffic is dropped with attribution, before any buffer is spent.
  if (st != nullptr && st->quarantined()) {
    ++quarantine_drops_;
    return;
  }
  // Unmapped VCI: no reassembly state, no host buffers — drop.
  if (st == nullptr || !st->mapped()) {
    ++cells_bad_header_;
    return;
  }
  if (fault::fires(faults_, fault::Point::kBoardRxCellDrop)) {
    // The SAR loop loses the cell after accepting it (e.g. a firmware
    // buffering bug); its PDU completes only if the sender retries.
    ++cells_sar_dropped_;
    sim::trace_event(trace_, eng_->now(), "rx", "sar_drop", c.vci, c.seq);
    return;
  }
  // The member scratch vectors keep their capacity from cell to cell; they
  // are moved out for the call, so a re-entrant call would allocate afresh
  // rather than alias them.
  std::vector<atm::Placement> places = std::move(scratch_places_);
  std::vector<atm::Completion> dones = std::move(scratch_dones_);
  places.clear();
  dones.clear();
  // The router object is heap-owned, so this reference stays valid even
  // if flow-table inserts below move the VciState slab.
  router_for(*st).on_cell(lane, c, places, dones);
  for (const auto& pl : places) handle_placement(c.vci, pl);
  for (const auto& dn : dones) handle_completion(c.vci, dn);
  scratch_places_ = std::move(places);
  scratch_dones_ = std::move(dones);
}

RxProcessor::RxPdu* RxProcessor::pdu_for(atm::Vci vci, std::uint64_t pdu,
                                         std::uint64_t* key_out) {
  const std::uint64_t key = pdu_map_key(vci, pdu);
  if (key_out != nullptr) *key_out = key;
  auto [p, fresh] = pdus_.emplace(key);
  if (fresh) {
    const VciState* st = flows_.find(vci);
    if (st == nullptr || !st->mapped()) {
      // The VCI was unmapped while this payload sat in the combine window;
      // there is nowhere to deliver, so the late cell is dropped.
      pdus_.erase(key);
      return nullptr;
    }
    p->recv_idx = st->recv_idx;
    p->free_id = st->free_id;
    p->fallback = st->fallback;
    p->vci = vci;
    p->started = eng_->now();
  }
  return p;
}

bool RxProcessor::ensure_capacity(RxPdu& p, std::uint64_t need) {
  alloc_fail_quota_ = false;
  const std::uint32_t quota = quota_for(p.vci);
  while (p.alloc_cap < need) {
    if (quota > 0 && vci_buffers_held(p.vci) >= quota) {
      // The VCI, not the pool, is the limit: overload isolation drops this
      // PDU rather than letting one hot VCI drain shared buffers.
      alloc_fail_quota_ = true;
      return false;
    }
    int src = p.free_id;
    std::optional<dpram::Descriptor> d;
    while (src >= 0) {
      FreeSource& fs = free_sources_[static_cast<std::size_t>(src)];
      if (fs.detached) {
        src = (src == p.free_id && p.fallback != p.free_id) ? p.fallback : -1;
        continue;
      }
      if (fault::fires(faults_, fault::Point::kRxBufferExhausted)) {
        // The pop comes back empty as if the host had fallen behind
        // recycling — exercising the same backpressure path as a
        // genuinely dry queue.
        d.reset();
      } else {
        d = fs.reader.pop();
      }
      if (d) {
        fs.low_raised = false;
        ++fs.buffers_consumed;
        // Free-list validation (§3.2): an application recycles buffers by
        // writing descriptors the firmware will later trust for DMA, so a
        // poisoned entry (zero/absurd length, wrapping range) or one
        // pointing outside the channel's authorized pages is rejected here
        // — skipped, counted, and escalated — never used as a DMA target.
        if (fs.auth) {
          Violation why = Violation::kCount;
          if (d->len == 0 || d->len > kMaxAdcDescriptorBytes ||
              static_cast<std::uint64_t>(d->addr) + d->len > (1ull << 32)) {
            why = Violation::kFreeListPoison;
          } else if (!fs.auth(d->addr, d->len)) {
            why = Violation::kUnauthorizedPage;
          }
          if (why != Violation::kCount) {
            ++auth_violations_;
            ++violation_counts_[static_cast<std::size_t>(why)];
            sim::trace_event(trace_, eng_->now(), "rx", violation_name(why),
                             static_cast<std::uint64_t>(fs.channel_id), d->addr);
            if (irq_) irq_(Irq::kAccessViolation, fs.channel_id);
            if (violation_sink_) violation_sink_(why, fs.channel_id);
            d.reset();
            continue;  // try the next descriptor from the same source
          }
        }
        break;
      }
      // Source exhausted: raise the backpressure interrupt toward its
      // owner (edge-triggered — once per empty episode, cleared by the
      // next successful pop) so the host recycles or tops up instead of
      // discovering the shortage as silent PDU drops, then fall back
      // (cached fbuf queue -> uncached, §3.1).
      if (!fs.low_raised) {
        fs.low_raised = true;
        ++backpressure_irqs_;
        sim::trace_event(trace_, eng_->now(), "rx", "free_low",
                         static_cast<std::uint64_t>(fs.channel_id),
                         static_cast<std::uint64_t>(src));
        if (irq_) irq_(Irq::kRxFreeLow, fs.channel_id);
      }
      src = (src == p.free_id && p.fallback != p.free_id) ? p.fallback : -1;
    }
    if (!d) {
      if (cfg_.rx_drop_policy == RxDropPolicy::kDropIncompleteFirst &&
          evict_incomplete(p)) {
        continue;  // the stolen buffers may already cover `need`
      }
      return false;
    }
    i960_.reserve(cfg_.fw_rx_per_dma);  // free-queue pop firmware cost
    p.bufs.push_back(PduBuf{d->addr, d->len, 0, d->user, false});
    p.alloc_cap += d->len;
    ++state_insert(p.vci).held;
  }
  return true;
}

bool RxProcessor::evict_incomplete(RxPdu& keep) {
  // Oldest incomplete reassembly drawing on the same free source, none of
  // whose buffers have reached the host yet (those are the driver's to
  // reclaim): its buffers are re-issued to the arriving PDU directly, no
  // host round-trip. Ties break on the key for deterministic replay.
  std::uint64_t victim_key = 0;
  RxPdu* victim = nullptr;
  pdus_.for_each([&](std::uint64_t key, RxPdu& p) {
    if (&p == &keep || p.complete || p.dropped) return;
    if (p.free_id != keep.free_id) return;
    if (p.next_push != 0 || p.bufs.empty()) return;
    if (victim == nullptr || p.started < victim->started ||
        (p.started == victim->started && key < victim_key)) {
      victim = &p;
      victim_key = key;
    }
  });
  if (victim == nullptr) return false;
  // The buffers may be partially written; they are fully reused, so stale
  // bytes are either overwritten or never delivered (filled counts reset).
  for (const PduBuf& b : victim->bufs) {
    keep.bufs.push_back(PduBuf{b.addr, b.cap, 0, b.user, false});
    keep.alloc_cap += b.cap;
  }
  const std::size_t moved = victim->bufs.size();
  release_quota(victim->vci, moved);
  state_insert(keep.vci).held += static_cast<std::uint32_t>(moved);
  if (pending_.valid && pending_.key == victim_key) pending_.valid = false;
  ++pdus_evicted_;
  sim::trace_event(trace_, eng_->now(), "rx", "evict_incomplete", victim->vci,
                   moved);
  pdus_.erase(victim_key);
  return true;
}

void RxProcessor::handle_placement(atm::Vci vci, const atm::Placement& pl) {
  const std::uint64_t key = pdu_map_key(vci, pl.pdu);

  // Try to combine with the pending payload (§2.5.1): contiguous offsets
  // of the same PDU, up to two cell payloads per DMA.
  if (pending_.valid) {
    const bool mergeable =
        cfg_.double_cell_dma_rx && pending_.key == key &&
        pl.offset == pending_.offset + pending_.bytes.size() &&
        pending_.bytes.size() + pl.cell.len <= 2 * atm::kCellPayload;
    if (mergeable) {
      pending_.bytes.insert(pending_.bytes.end(), pl.cell.payload.begin(),
                            pl.cell.payload.begin() + pl.cell.len);
      flush_pending();  // two payloads: issue the double-length DMA now
      return;
    }
    flush_pending();
  }

  pending_.valid = true;
  pending_.key = key;
  pending_.offset = pl.offset;
  pending_.bytes.assign(pl.cell.payload.begin(),
                        pl.cell.payload.begin() + pl.cell.len);
  pending_.t_origin = pl.cell.t_origin;
  if (!cfg_.double_cell_dma_rx) {
    flush_pending();
  } else {
    schedule_flush_timer();
  }
}

void RxProcessor::schedule_flush_timer() {
  // One live combine-window timer at a time: re-arming cancels the old one
  // (and an early flush_pending() cancels it too), so dead generations are
  // never dispatched.
  eng_->cancel(flush_timer_);
  const auto wait = static_cast<sim::Duration>(cfg_.combine_wait_cell_times *
                                               static_cast<double>(sim::ns(681.6)));
  flush_timer_ = eng_->schedule_timer(wait, [this] {
    if (pending_.valid) flush_pending();
  });
}

void RxProcessor::flush_pending() {
  if (!pending_.valid) return;
  pending_.valid = false;
  eng_->cancel(flush_timer_);
  // Create or find the PDU's reassembly state (key encodes the VCI).
  const atm::Vci vci = atm::VciKey::vci_of(pending_.key);
  const std::uint64_t local = atm::VciKey::sub_of(pending_.key);
  RxPdu* p = pdu_for(vci, local, nullptr);
  if (p == nullptr || p->dropped) return;
  if (p->t_origin == 0) p->t_origin = pending_.t_origin;
  issue_dma(*p, pending_.offset, pending_.bytes);
  if (!p->dropped) try_push(pending_.key, *p);
}

void RxProcessor::issue_dma(RxPdu& p, std::uint32_t offset,
                            const std::vector<std::uint8_t>& bytes) {
  const std::uint64_t need = static_cast<std::uint64_t>(offset) + bytes.size();
  if (!ensure_capacity(p, need)) {
    p.dropped = true;
    if (alloc_fail_quota_) {
      ++pdus_dropped_quota_;
      sim::trace_event(trace_, eng_->now(), "rx", "drop_quota", p.vci, need);
    } else {
      ++pdus_dropped_nobuf_;
      sim::trace_event(trace_, eng_->now(), "rx", "drop_nobuf",
                       static_cast<std::uint64_t>(p.recv_idx), need);
    }
    return;
  }
  // Firmware decision time (one per DMA command).
  sim::Tick t = i960_.reserve(cfg_.fw_rx_per_dma);

  // Split at buffer boundaries (buffers are physically contiguous, so no
  // further page split is needed inside one), collecting the scatter
  // program; the bytes then land in a single dma_scatter with per-segment
  // fault/error semantics — exactly as per-chunk writes behaved.
  scratch_segs_.clear();
  std::uint64_t cursor = offset;
  std::size_t done = 0;
  while (done < bytes.size()) {
    // Locate the buffer containing `cursor`.
    std::uint64_t base = 0;
    std::size_t bi = 0;
    for (; bi < p.bufs.size(); ++bi) {
      if (cursor < base + p.bufs[bi].cap) break;
      base += p.bufs[bi].cap;
    }
    if (bi == p.bufs.size()) throw std::logic_error("RxProcessor: offset beyond buffers");
    PduBuf& b = p.bufs[bi];
    const auto inner = static_cast<std::uint32_t>(cursor - base);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bytes.size() - done, b.cap - inner));
    t = bus_->dma_write(t, n);
    scratch_segs_.push_back(mem::PhysBuffer{b.addr + inner, n});
    b.filled += n;
    ++dma_ops_;
    if (n > atm::kCellPayload) ++combined_dma_ops_;
    cursor += n;
    done += n;
  }
  const std::size_t okn =
      cache_->dma_scatter(scratch_segs_, {bytes.data(), bytes.size()});
  if (okn < scratch_segs_.size()) {
    // Failed segments (injected DMA error, or a buffer address from a
    // corrupted descriptor): the firmware doesn't notice — those buffer
    // regions keep whatever bytes they held, and the end-to-end checksum
    // is what catches the damage.
    const std::uint64_t failed = scratch_segs_.size() - okn;
    dma_errors_ += failed;
    sim::trace_event(trace_, eng_->now(), "rx", "dma_error",
                     scratch_segs_.front().addr, failed);
  }
  // The cells covered by this DMA leave the on-board FIFO when it lands.
  const std::size_t cells =
      (bytes.size() + atm::kCellPayload - 1) / atm::kCellPayload;
  for (std::size_t i = 0; i < cells; ++i) inflight_.push_back(t);
  p.last_dma = std::max(p.last_dma, t);
}

void RxProcessor::handle_completion(atm::Vci vci, const atm::Completion& c) {
  const std::uint64_t key = pdu_map_key(vci, c.pdu);
  if (pending_.valid && pending_.key == key) flush_pending();
  RxPdu* pp = pdus_.find(key);
  if (pp == nullptr) return;
  RxPdu& p = *pp;
  if (p.dropped) {
    // The drop decision came mid-PDU: buffers it already held go back to
    // the host as aborted descriptors, not into oblivion.
    abort_pdu_buffers(key, p);
    release_quota(p.vci, p.bufs.size());
    pdus_.erase(key);
    return;
  }
  p.complete = true;
  p.wire_len = c.wire_bytes;
  i960_.reserve(cfg_.fw_rx_per_pdu);
  ++pdus_completed_;
  if (spans_ != nullptr) {
    const sim::Tick now = eng_->now();
    if (now >= p.started) {
      spans_->record(obs::Stage::kReassemble, now - p.started);
    }
    if (p.last_dma >= p.started) {
      spans_->record(obs::Stage::kRxDma, p.last_dma - p.started);
    }
  }
  sim::trace_event(trace_, eng_->now(), "rx", "pdu_done", vci, p.wire_len);
  try_push(key, p);
  release_quota(p.vci, p.bufs.size());
  pdus_.erase(key);
}

void RxProcessor::try_push(std::uint64_t key, RxPdu& p) {
  if (p.dropped) return;
  // Identify, once complete, the last buffer holding data.
  std::size_t last_idx = 0;
  if (p.complete) {
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < p.bufs.size(); ++i) {
      if (p.wire_len - 1 < base + p.bufs[i].cap) {
        last_idx = i;
        break;
      }
      base += p.bufs[i].cap;
    }
  }
  const atm::Vci vci = atm::VciKey::vci_of(key);
  while (p.next_push < p.bufs.size()) {
    const std::uint32_t i = p.next_push;
    PduBuf& b = p.bufs[i];
    const bool is_last = p.complete && i == last_idx;
    if (b.filled == b.cap && !is_last) {
      push_buffer(p, i, /*eop=*/false, key, vci, p.last_dma);
      ++p.next_push;
      continue;
    }
    if (is_last) {
      push_buffer(p, i, /*eop=*/true, key, vci, p.last_dma);
      ++p.next_push;
      continue;
    }
    break;
  }
}

void RxProcessor::push_buffer(RxPdu& p, std::uint32_t idx, bool eop,
                              std::uint64_t pdu_tag, atm::Vci vci,
                              sim::Tick at, std::uint16_t extra_flags) {
  RecvChannel& ch = recv_channels_[static_cast<std::size_t>(p.recv_idx)];
  const PduBuf& b = p.bufs[idx];
  dpram::Descriptor d;
  d.addr = b.addr;
  d.len = b.filled;
  d.vci = vci;
  d.flags = static_cast<std::uint16_t>(rx_desc_flags(eop, pdu_tag) | extra_flags);
  d.user = b.user;

  sim::Tick when = std::max(at, ch.push_horizon);
  if (when < eng_->now()) when = eng_->now();
  ch.push_horizon = when;
  const int recv_idx = p.recv_idx;

  // Publish the span handoff the driver closes at delivery, keyed exactly
  // as the driver demultiplexes: (vci, 5-bit descriptor tag). Aborted
  // descriptors are recycled, never delivered — drop their entry instead.
  if (eop && spans_ != nullptr) {
    const auto tag = static_cast<std::uint8_t>(pdu_tag & dpram::kDescTagMask);
    if ((extra_flags & dpram::kDescAborted) != 0) {
      spans_->rx_aborted(vci, tag);
    } else {
      spans_->rx_pushed(vci, tag, p.t_origin, when);
    }
  }

  // Same-tick coalescing (DESIGN.md §8): a reassembly completion pushes a
  // run of buffers with the same completion time, and the engine's batch
  // dispatch hands the whole tick to us in one event. Append to the still
  // open batch instead of re-entering the scheduler per descriptor.
  if (open_batch_ != kNoBatch) {
    PushBatch& ob = push_batches_[open_batch_];
    if (ob.at == when && ob.recv_idx == recv_idx && ob.epoch == epoch_) {
      ob.descs.push_back(d);
      ++pushes_coalesced_;
      return;
    }
  }
  std::uint32_t bi;
  if (free_batch_ != kNoBatch) {
    bi = free_batch_;
    free_batch_ = push_batches_[bi].next_free;
  } else {
    bi = static_cast<std::uint32_t>(push_batches_.size());
    push_batches_.emplace_back();
  }
  PushBatch& nb = push_batches_[bi];
  nb.at = when;
  nb.recv_idx = recv_idx;
  nb.epoch = epoch_;
  nb.descs.clear();
  nb.descs.push_back(d);
  open_batch_ = bi;
  ++push_batches_scheduled_;
  eng_->schedule_at(when, [this, bi] { fire_push_batch(bi); });
}

void RxProcessor::fire_push_batch(std::uint32_t bi) {
  PushBatch& bt = push_batches_[bi];
  // Take the contents and retire the slot up front: the irq sink can run
  // arbitrary driver code that pushes (and batches) more buffers.
  descs_firing_.clear();
  std::swap(descs_firing_, bt.descs);
  const int recv_idx = bt.recv_idx;
  const std::uint64_t ep = bt.epoch;
  if (open_batch_ == bi) open_batch_ = kNoBatch;
  bt.next_free = free_batch_;
  free_batch_ = bi;

  // Each descriptor re-checks epoch/attachment, exactly as the old
  // one-event-per-descriptor path did: the irq sink can run driver code
  // that detaches the channel or resets the adaptor mid-batch.
  for (const dpram::Descriptor& d : descs_firing_) {
    // A completion scheduled before an adaptor reset must not leak a
    // pre-reset buffer descriptor into the fresh receive queue.
    if (ep != epoch_) break;
    RecvChannel& c = recv_channels_[static_cast<std::size_t>(recv_idx)];
    if (c.detached) {
      // The tenant died between DMA and completion: its dpram page may be
      // someone else's now. Account the drop; nothing is delivered.
      ++dead_channel_drops_;
      continue;
    }
    const bool was_empty = c.writer.size() == 0;
    const auto res = c.writer.push(d);
    if (!res.ok) {
      ++pdus_dropped_recvfull_;
      sim::trace_event(trace_, eng_->now(), "rx", "drop_recvfull",
                       static_cast<std::uint64_t>(recv_idx), d.vci);
      continue;
    }
    if (was_empty && irq_) {
      sim::trace_event(trace_, eng_->now(), "rx", "irq_nonempty",
                       static_cast<std::uint64_t>(c.channel_id), d.vci);
      irq_(Irq::kRxNonEmpty, c.channel_id);
    }
  }
}

std::uint64_t RxProcessor::purge_incomplete(sim::Duration max_age) {
  const sim::Tick now = eng_->now();
  const std::uint64_t purged =
      pdus_.erase_if([this, now, max_age](std::uint64_t key, RxPdu& p) {
        if (p.complete || now < p.started || now - p.started <= max_age) {
          return false;
        }
        if (pending_.valid && pending_.key == key) pending_.valid = false;
        abort_pdu_buffers(key, p);
        release_quota(p.vci, p.bufs.size());
        return true;
      });
  return purged;
}

void RxProcessor::start_generator(atm::Vci vci, std::vector<std::uint8_t> pdu,
                                  std::uint64_t count, sim::Duration cell_period) {
  start_generator_multi(vci, {std::move(pdu)}, count, cell_period);
}

void RxProcessor::start_generator_multi(
    atm::Vci vci, const std::vector<std::vector<std::uint8_t>>& pdus,
    std::uint64_t count, sim::Duration cell_period) {
  gen_trains_.clear();
  for (const auto& p : pdus) {
    gen_trains_.push_back(atm::segment({p.data(), p.size()}, vci, 0));
  }
  gen_vci_ = vci;
  gen_remaining_ = count;
  gen_train_idx_ = 0;
  gen_cell_idx_ = 0;
  gen_pdu_id_ = 0;
  gen_period_ = cell_period == 0 ? sim::ns(681.6) : cell_period;
  if (!gen_active_ && count > 0 && !gen_trains_.empty()) {
    gen_active_ = true;
    eng_->schedule(0, [this] { step_generator(); });
  }
}

void RxProcessor::step_generator() {
  if (gen_remaining_ == 0 || stalled_) {
    gen_active_ = false;
    return;
  }
  if (fifo_occupancy() >= cfg_.rx_fifo_depth) {
    // Host can't absorb yet: stall the generator one cell period.
    eng_->schedule(gen_period_, [this] { step_generator(); });
    return;
  }
  atm::Cell c = gen_trains_[gen_train_idx_][gen_cell_idx_];
  c.pdu_id = gen_pdu_id_;
  atm::seal(c);
  accept_cell(static_cast<int>(c.seq % atm::kLanes), c);
  ++cells_received_;
  ++cells_generated_;
  ++gen_cell_idx_;
  if (gen_cell_idx_ == gen_trains_[gen_train_idx_].size()) {
    gen_cell_idx_ = 0;
    ++gen_pdu_id_;
    ++gen_train_idx_;
    if (gen_train_idx_ == gen_trains_.size()) {
      gen_train_idx_ = 0;
      --gen_remaining_;
      if (gen_remaining_ == 0) {
        gen_active_ = false;
        return;
      }
    }
  }
  eng_->schedule(gen_period_, [this] { step_generator(); });
}

}  // namespace osiris::board
