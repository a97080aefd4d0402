// A small request/response protocol on top of the stack.
//
// The paper's approach is protocol-independent (§1: the x-kernel supports
// arbitrary protocols). This module demonstrates exactly that: a third
// protocol configured above the UDP/IP-like stack — request/response
// matching with ids and timeouts — without the driver or board knowing
// anything about it. It is also what the ADC story needs to feel real: a
// user-space application doing RPC entirely over its device channel.
//
// Wire format (8-byte header before the user payload):
//   [0..3] request id     [4] type (0 = request, 1 = response)   [5..7] 0
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "host/machine.h"
#include "mem/paging.h"
#include "proto/message.h"
#include "proto/stack.h"
#include "sim/engine.h"

namespace osiris::proto {

class RpcEndpoint {
 public:
  /// Server-side handler: consumes the request payload, returns the
  /// response payload.
  using Handler =
      std::function<std::vector<std::uint8_t>(std::vector<std::uint8_t>)>;

  /// Client-side completion: response payload, or nullopt on timeout.
  using Callback = std::function<void(
      sim::Tick at, std::optional<std::vector<std::uint8_t>> response)>;

  /// `space` provides backing memory for outgoing messages (the kernel
  /// space for in-kernel endpoints, the ADC's space for user-space ones).
  /// Outgoing frames are written into a preallocated ring of registered
  /// buffer slots — the pattern an ADC application must follow, since the
  /// board only accepts DMA from its authorized page list; register the
  /// slots via arena_buffers(). Frames larger than a slot fall back to a
  /// fresh allocation (fine in the kernel, rejected over an ADC).
  RpcEndpoint(sim::Engine& eng, ProtoStack& stack, mem::AddressSpace& space,
              host::HostCpu& cpu, const host::MachineConfig& mc);

  /// The physical buffers of the outgoing-frame arena, for ADC page
  /// authorization.
  [[nodiscard]] std::vector<mem::PhysBuffer> arena_buffers() const;

  /// Installs this endpoint as the stack's sink and serves requests.
  void serve(Handler h);

  /// Issues a request on `vci`. The callback fires with the response or,
  /// once `timeout` (grown by kRetryBackoff per attempt) has expired
  /// `retries + 1` times, with nullopt. A retry re-sends the request with
  /// the same id, so a duplicate response is recognized and dropped. The
  /// default (no retries) is fire-once.
  sim::Tick call(sim::Tick at, atm::Vci vci,
                 std::vector<std::uint8_t> request, Callback cb,
                 sim::Duration timeout = sim::ms(100),
                 std::uint32_t retries = 0);

  [[nodiscard]] std::uint64_t responses() const { return responses_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t stray() const { return stray_; }
  /// Requests re-sent by the client-side retry policy.
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Pending {
    Callback cb;
    sim::TimerHandle timer;  // cancelled when the response arrives
    atm::Vci vci = 0;
    std::vector<std::uint8_t> request;  // kept while retries remain
    std::uint32_t retries_left = 0;
    sim::Duration cur_timeout = 0;
  };

  void on_data(sim::Tick at, atm::Vci vci,
               std::vector<std::uint8_t>&& data);
  sim::Tick send_framed(sim::Tick at, atm::Vci vci, std::uint32_t id,
                        bool response, const std::vector<std::uint8_t>& payload);
  void schedule_timeout(std::uint32_t id, sim::Tick deadline);

  sim::Engine* eng_;
  ProtoStack* stack_;
  mem::AddressSpace* space_;
  host::HostCpu* cpu_;
  const host::MachineConfig* mc_;
  Handler handler_;
  // Registered-buffer discipline: a slot must not be rewritten while the
  // board may still DMA from it. The transmit queue holds at most 63
  // descriptors, so a ring deeper than that is safe for any number of
  // outstanding calls.
  static constexpr std::size_t kSlots = 96;
  static constexpr std::uint32_t kSlotBytes = 16 * 1024;
  std::vector<mem::VirtAddr> slots_;
  std::size_t next_slot_ = 0;
  std::uint32_t next_id_ = 1;  // never reused, so an id fully keys a call
  std::map<std::uint32_t, Pending> pending_;

  std::uint64_t responses_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace osiris::proto
