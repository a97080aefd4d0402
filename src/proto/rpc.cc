#include "proto/rpc.h"

#include <algorithm>

#include "proto/arq.h"

namespace osiris::proto {

namespace {
constexpr std::size_t kRpcHeader = 8;
}  // namespace

RpcEndpoint::RpcEndpoint(sim::Engine& eng, ProtoStack& stack,
                         mem::AddressSpace& space, host::HostCpu& cpu,
                         const host::MachineConfig& mc)
    : eng_(&eng), stack_(&stack), space_(&space), cpu_(&cpu), mc_(&mc) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    slots_.push_back(space_->alloc(kSlotBytes));
  }
  stack_->set_sink([this](sim::Tick at, atm::Vci vci,
                          std::vector<std::uint8_t>&& data) {
    on_data(at, vci, std::move(data));
  });
}

std::vector<mem::PhysBuffer> RpcEndpoint::arena_buffers() const {
  std::vector<mem::PhysBuffer> out;
  for (const mem::VirtAddr va : slots_) {
    const auto sc = space_->scatter(va, kSlotBytes);
    out.insert(out.end(), sc.begin(), sc.end());
  }
  return out;
}

void RpcEndpoint::serve(Handler h) { handler_ = std::move(h); }

sim::Tick RpcEndpoint::send_framed(sim::Tick at, atm::Vci vci,
                                   std::uint32_t id, bool response,
                                   const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed(kRpcHeader + payload.size());
  framed[0] = static_cast<std::uint8_t>(id >> 24);
  framed[1] = static_cast<std::uint8_t>(id >> 16);
  framed[2] = static_cast<std::uint8_t>(id >> 8);
  framed[3] = static_cast<std::uint8_t>(id);
  framed[4] = response ? 1 : 0;
  std::copy(payload.begin(), payload.end(), framed.begin() + kRpcHeader);
  if (framed.size() <= kSlotBytes) {
    // Write into the next registered slot and send a view over it.
    const mem::VirtAddr slot = slots_[next_slot_];
    next_slot_ = (next_slot_ + 1) % kSlots;
    stack_->write_through(*space_, slot, framed);
    return stack_->send(
        at, vci,
        Message::view(*space_, slot, static_cast<std::uint32_t>(framed.size())));
  }
  // Oversized frame: fall back to a fresh allocation (kernel endpoints
  // only — over an ADC the board would reject the unregistered pages).
  const Message m = Message::from_payload(*space_, framed);
  return stack_->send(at, vci, m);
}

sim::Tick RpcEndpoint::call(sim::Tick at, atm::Vci vci,
                            std::vector<std::uint8_t> request, Callback cb,
                            sim::Duration timeout, std::uint32_t retries) {
  const std::uint32_t id = next_id_++;
  const sim::Tick done = send_framed(at, vci, id, false, request);
  Pending p{std::move(cb), {}, vci, {}, retries, timeout};
  if (retries > 0) p.request = std::move(request);
  pending_[id] = std::move(p);
  schedule_timeout(id, done + timeout);
  return done;
}

void RpcEndpoint::schedule_timeout(std::uint32_t id, sim::Tick deadline) {
  const auto pit = pending_.find(id);
  if (pit == pending_.end()) return;
  // The handle is cancelled when a response completes the call, so a
  // firing timer always refers to a still-pending id (the find() stays as
  // a defensive guard — ids are never reused).
  pit->second.timer = eng_->schedule_timer_at(deadline, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    if (p.retries_left > 0) {
      // Same id, so a response to ANY attempt — including a late one to
      // the original — completes the call; later duplicates are stray.
      --p.retries_left;
      ++retransmissions_;
      p.cur_timeout = static_cast<sim::Duration>(
          static_cast<double>(p.cur_timeout) * kRetryBackoff);
      const sim::Tick sent =
          send_framed(eng_->now(), p.vci, id, false, p.request);
      schedule_timeout(id, sent + p.cur_timeout);
      return;
    }
    Callback cb2 = std::move(p.cb);
    pending_.erase(it);
    ++timeouts_;
    cb2(eng_->now(), std::nullopt);
  });
}

void RpcEndpoint::on_data(sim::Tick at, atm::Vci vci,
                          std::vector<std::uint8_t>&& data) {
  if (data.size() < kRpcHeader) {
    ++stray_;
    return;
  }
  const std::uint32_t id = (static_cast<std::uint32_t>(data[0]) << 24) |
                           (static_cast<std::uint32_t>(data[1]) << 16) |
                           (static_cast<std::uint32_t>(data[2]) << 8) | data[3];
  const bool is_response = data[4] != 0;
  std::vector<std::uint8_t> payload(data.begin() + kRpcHeader, data.end());

  if (is_response) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      ++stray_;  // late response after timeout
      return;
    }
    Callback cb = std::move(it->second.cb);
    eng_->cancel(it->second.timer);
    pending_.erase(it);
    ++responses_;
    cb(at, std::move(payload));
    return;
  }

  if (!handler_) {
    ++stray_;
    return;
  }
  ++served_;
  std::vector<std::uint8_t> reply = handler_(std::move(payload));
  // A small server-side turnaround cost, then the reply goes out.
  const sim::Tick t = cpu_->exec(at, host::Work{mc_->app_recv + mc_->app_send, 0});
  send_framed(t, vci, id, true, reply);
}

}  // namespace osiris::proto
