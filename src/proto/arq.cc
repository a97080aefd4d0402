#include "proto/arq.h"

#include <algorithm>

namespace osiris::proto {

namespace {
constexpr std::uint8_t kTypeData = 1;
constexpr std::uint8_t kTypeAck = 2;

void put32(std::vector<std::uint8_t>& v, std::size_t at, std::uint32_t x) {
  v[at + 0] = static_cast<std::uint8_t>(x >> 24);
  v[at + 1] = static_cast<std::uint8_t>(x >> 16);
  v[at + 2] = static_cast<std::uint8_t>(x >> 8);
  v[at + 3] = static_cast<std::uint8_t>(x);
}

std::uint32_t get32(const std::vector<std::uint8_t>& v, std::size_t at) {
  return (static_cast<std::uint32_t>(v[at + 0]) << 24) |
         (static_cast<std::uint32_t>(v[at + 1]) << 16) |
         (static_cast<std::uint32_t>(v[at + 2]) << 8) | v[at + 3];
}
}  // namespace

ArqEndpoint::ArqEndpoint(sim::Engine& eng, ProtoStack& stack,
                         mem::AddressSpace& space, host::HostCpu& cpu,
                         const host::MachineConfig& mc, ArqConfig cfg)
    : eng_(&eng),
      stack_(&stack),
      space_(&space),
      cpu_(&cpu),
      mc_(&mc),
      cfg_(cfg) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    slots_.push_back(Slot{space_->alloc(kSlotBytes), 0});
  }
  attach();
  reset_hook_token_ = stack_->driver().add_reset_hook(
      [this](sim::Tick at) { on_driver_reset(at); });
}

ArqEndpoint::~ArqEndpoint() {
  if (reset_hook_token_ >= 0) {
    stack_->driver().remove_reset_hook(reset_hook_token_);
  }
  eng_->cancel(resync_timer_);
  for (auto& [vci, s] : tx_) eng_->cancel(s.timer);
}

void ArqEndpoint::attach() {
  stack_->set_sink([this](sim::Tick at, atm::Vci vci,
                          std::vector<std::uint8_t>&& data) {
    on_data(at, vci, std::move(data));
  });
}

void ArqEndpoint::bind(atm::Vci vci) {
  TxState& s = tx_[vci];
  s.cur_rto = cfg_.rto;
  rx_[vci];
}

bool ArqEndpoint::idle() const {
  for (const auto& [vci, s] : tx_) {
    if (!s.window.empty() || !s.queue.empty()) return false;
  }
  return true;
}

bool ArqEndpoint::dead(atm::Vci vci) const {
  const auto it = tx_.find(vci);
  return it != tx_.end() && it->second.dead;
}

std::vector<mem::PhysBuffer> ArqEndpoint::arena_buffers() const {
  std::vector<mem::PhysBuffer> out;
  for (const Slot& s : slots_) {
    const auto sc = space_->scatter(s.va, kSlotBytes);
    out.insert(out.end(), sc.begin(), sc.end());
  }
  return out;
}

std::vector<std::uint8_t> ArqEndpoint::frame(
    std::uint8_t type, atm::Vci vci, std::uint32_t seq, std::uint32_t ack,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> f(kArqHeader + payload.size());
  f[0] = type;
  f[1] = static_cast<std::uint8_t>(vci >> 16);
  f[2] = static_cast<std::uint8_t>(vci >> 8);
  f[3] = static_cast<std::uint8_t>(vci);
  put32(f, 4, seq);
  put32(f, 8, ack);
  std::copy(payload.begin(), payload.end(), f.begin() + kArqHeader);
  return f;
}

sim::Tick ArqEndpoint::send_frame(sim::Tick at, atm::Vci vci,
                                  const std::vector<std::uint8_t>& framed) {
  host::OsirisDriver& drv = stack_->driver();
  sim::Tick t = at;
  if (framed.size() <= kSlotBytes) {
    // A slot is reusable only once the board has DMAed its previous frame
    // out (driver tx-completion watermark); rewriting it earlier would put
    // torn bytes on the wire. Poll the tail word, then scan for a free
    // slot from the cursor.
    t = drv.reclaim_tx(t);
    const std::uint64_t retired = drv.tx_descs_retired();
    for (std::size_t probe = 0; probe < kSlots; ++probe) {
      const std::size_t idx = (next_slot_ + probe) % kSlots;
      Slot& s = slots_[idx];
      if (s.busy_until > retired) continue;
      next_slot_ = (idx + 1) % kSlots;
      stack_->write_through(*space_, s.va, framed);
      t = stack_->send(
          t, vci,
          Message::view(*space_, s.va,
                        static_cast<std::uint32_t>(framed.size())));
      s.busy_until = drv.tx_descs_accepted();
      return t;
    }
    // Every slot still owned by an in-flight DMA: fall back to a fresh
    // (never reused) allocation rather than stall or corrupt.
  }
  const Message m = Message::from_payload(*space_, framed);
  return stack_->send(t, vci, m);
}

sim::Tick ArqEndpoint::send_ack(sim::Tick at, atm::Vci vci) {
  return send_frame(at, vci, frame(kTypeAck, vci, 0, rx_[vci].expect, {}));
}

void ArqEndpoint::arm_timer(atm::Vci vci, TxState& s, sim::Tick at) {
  // One live timer per VCI: re-arming cancels the previous one in the
  // engine, so dead generations are dropped at the queue instead of firing
  // as guarded no-ops.
  eng_->cancel(s.timer);
  s.timer_armed = true;
  s.timer = eng_->schedule_timer_at(at + s.cur_rto,
                                    [this, vci] { on_timeout(vci); });
}

void ArqEndpoint::on_timeout(atm::Vci vci) {
  TxState& s = tx_[vci];
  s.timer_armed = false;  // the armed timer just fired
  if (s.dead || s.window.empty()) return;
  if (s.retries >= cfg_.max_retries) {
    give_up(vci, s);
    return;
  }
  ++s.retries;
  ++retransmissions_;
  const sim::Tick t =
      send_frame(eng_->now(), vci, s.window.front().framed);
  s.cur_rto = static_cast<sim::Duration>(static_cast<double>(s.cur_rto) *
                                         cfg_.backoff);
  if (cfg_.max_rto > 0 && s.cur_rto > cfg_.max_rto) s.cur_rto = cfg_.max_rto;
  arm_timer(vci, s, t);
}

// Session resynchronization after a generation-checked adaptor reset.
//
// A force_reset leaves the sender's ARQ state disagreeing with reality in
// two ways:
//
//  1. The driver credits every lost in-flight chain as retired
//     (tx_descs_retired_ += inflight), then replays parked sends. A frame
//     arena slot whose busy_until watermark predates the reset therefore
//     looks free even when a *replayed* chain still references it — the
//     next send would rewrite it mid-DMA and put a torn frame on the wire
//     (previously only the end-to-end checksum caught this). Every busy
//     slot is re-quarantined to the post-reset accepted watermark, which
//     all replayed chains are at or below.
//
//  2. Frames in the retransmit window were on the board or the wire when
//     the reset discarded them. Waiting out the current (possibly
//     backed-off) RTO — and burning retry budget on a path that is known
//     to have just been rebuilt — delays convergence for no reason.
//     Retries and RTO are reset and the base frame of every live VCI is
//     retransmitted immediately, from a scheduled event: this hook runs
//     inside force_reset(), and transmitting synchronously would re-enter
//     the driver mid-reset.
void ArqEndpoint::on_driver_reset(sim::Tick /*at*/) {
  host::OsirisDriver& drv = stack_->driver();
  const std::uint64_t accepted = drv.tx_descs_accepted();
  for (Slot& s : slots_) {
    if (s.busy_until != 0) s.busy_until = accepted;
  }
  bool live = false;
  for (auto& [vci, s] : tx_) {
    if (s.dead || s.window.empty()) continue;
    s.retries = 0;
    s.cur_rto = cfg_.rto;
    live = true;
  }
  if (!live || resync_pending_) return;
  ++resyncs_;
  resync_pending_ = true;
  resync_timer_ =
      eng_->schedule_timer_at(eng_->now(), [this] { resync_kick(); });
}

void ArqEndpoint::resync_kick() {
  resync_pending_ = false;
  sim::Tick t = eng_->now();
  for (auto& [vci, s] : tx_) {
    if (s.dead || s.window.empty()) continue;
    ++retransmissions_;
    t = send_frame(t, vci, s.window.front().framed);
    arm_timer(vci, s, t);
  }
}

void ArqEndpoint::give_up(atm::Vci /*vci*/, TxState& s) {
  // Terminal: the peer (or the path) is gone beyond what retransmission
  // can fix. Everything pending is dropped and further sends are refused,
  // so the event queue drains instead of backing off forever.
  gave_up_ += s.window.size() + s.queue.size();
  s.window.clear();
  s.queue.clear();
  eng_->cancel(s.timer);
  s.timer_armed = false;
  s.dead = true;
}

sim::Tick ArqEndpoint::pump(atm::Vci vci, TxState& s, sim::Tick at) {
  sim::Tick t = at;
  while (!s.queue.empty() && s.window.size() < cfg_.window && !s.dead) {
    std::vector<std::uint8_t> payload = std::move(s.queue.front());
    s.queue.pop_front();
    const std::uint32_t seq = s.next_seq++;
    Unacked u{seq, frame(kTypeData, vci, seq, rx_[vci].expect, payload)};
    t = send_frame(t, vci, u.framed);
    s.window.push_back(std::move(u));
    if (!s.timer_armed) arm_timer(vci, s, t);
  }
  return t;
}

sim::Tick ArqEndpoint::send(sim::Tick at, atm::Vci vci,
                            std::vector<std::uint8_t> payload) {
  const auto it = tx_.find(vci);
  if (it == tx_.end()) {
    // Unbound VCI: plain datagram.
    const Message m = Message::from_payload(*space_, payload);
    return stack_->send(at, vci, m);
  }
  TxState& s = it->second;
  if (s.dead) {
    ++gave_up_;
    return at;
  }
  s.queue.push_back(std::move(payload));
  return pump(vci, s, at);
}

void ArqEndpoint::handle_ack(atm::Vci vci, TxState& s, std::uint32_t ackno,
                             sim::Tick at) {
  const std::uint32_t advance = ackno - s.base;  // mod 2^32
  if (advance == 0 || advance > s.window.size()) return;  // stale or absurd
  for (std::uint32_t i = 0; i < advance; ++i) s.window.pop_front();
  s.base = ackno;
  s.retries = 0;
  s.cur_rto = cfg_.rto;
  const sim::Tick t = pump(vci, s, at);
  if (s.window.empty()) {
    s.timer_armed = false;
    eng_->cancel(s.timer);  // nothing left to retransmit
  } else {
    arm_timer(vci, s, t);  // fresh timeout for the new base frame
  }
}

void ArqEndpoint::on_data(sim::Tick at, atm::Vci vci,
                          std::vector<std::uint8_t>&& data) {
  const auto txit = tx_.find(vci);
  if (txit == tx_.end()) {
    // Unbound VCI: hand through unframed.
    if (sink_) sink_(at, vci, std::move(data));
    return;
  }
  if (data.size() < kArqHeader) return;  // malformed
  const std::uint8_t type = data[0];
  const auto evci = static_cast<atm::Vci>(
      (static_cast<atm::Vci>(data[1]) << 16) |
      (static_cast<atm::Vci>(data[2]) << 8) | data[3]);
  if (evci != vci) {
    // A corrupted receive descriptor steered this frame to the wrong
    // channel; treating it as ours would corrupt both sequence spaces.
    ++misrouted_;
    return;
  }
  const std::uint32_t seq = get32(data, 4);
  const std::uint32_t ackno = get32(data, 8);

  // Both frame types carry a cumulative ack (data frames piggyback it).
  handle_ack(vci, txit->second, ackno, at);
  if (type == kTypeAck) return;
  if (type != kTypeData) return;  // malformed

  RxState& r = rx_[vci];
  std::vector<std::uint8_t> payload(data.begin() + kArqHeader, data.end());
  const std::uint32_t dist = seq - r.expect;  // mod 2^32
  if (dist == 0) {
    ++delivered_;
    ++r.expect;
    if (sink_) sink_(at, vci, std::move(payload));
    // Release any buffered successors that are now in sequence.
    for (auto it = r.ooo.find(r.expect); it != r.ooo.end();
         it = r.ooo.find(r.expect)) {
      std::vector<std::uint8_t> next = std::move(it->second);
      r.ooo.erase(it);
      ++delivered_;
      ++r.expect;
      if (sink_) sink_(at, vci, std::move(next));
    }
  } else if (dist <= 0x80000000u && dist <= 4ull * cfg_.window) {
    // Ahead of expect: buffer it (emplace keeps an earlier copy). A seq
    // behind expect (dist > 2^31) retransmits delivered data: dropped.
    r.ooo.emplace(seq, std::move(payload));
  }
  // Ack every data frame: the cumulative ack both confirms progress and,
  // when duplicated, tells the sender its own ack was lost.
  send_ack(at, vci);
}

}  // namespace osiris::proto
