// Protocol stacks configured on top of the OSIRIS driver.
//
// Mirrors the paper's two measurement configurations (§4):
//  * raw "ATM": test programs directly on the device driver;
//  * "UDP/IP": a UDP-like protocol over an IP-like protocol with
//    fragmentation at a configurable MTU and an optional, genuinely
//    computed 16-bit Internet checksum.
//
// The checksum path reads received data through the machine's data-cache
// model. On the non-coherent DECstation this is where stale data surfaces:
// a checksum mismatch triggers the paper's lazy-invalidation recovery
// (§2.3) — invalidate the affected lines, re-read from memory, re-verify —
// before the message is declared corrupt.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "atm/checksum.h"
#include "host/driver.h"
#include "proto/message.h"
#include "sim/stats.h"

namespace osiris::proto {

enum class StackMode { kRawAtm, kUdpIp };

struct StackConfig {
  StackMode mode = StackMode::kUdpIp;
  // Maximum PDU handed to the driver, including the IP-like header. The
  // paper ran with a 16 KB MTU; see §2.2 for why MTU choice interacts with
  // page alignment. kIpHeader + 8 + 16384 keeps a 16 KB message in one
  // fragment (the configuration the paper's throughput figures imply).
  std::uint32_t ip_mtu = 20 + 8 + 16 * 1024;
  bool udp_checksum = false;
};

constexpr std::uint32_t kIpHeader = 20;
constexpr std::uint32_t kUdpHeader = 8;

class ProtoStack {
 public:
  /// Delivered user data: arrival-completion time, VCI, payload bytes.
  using Sink =
      std::function<void(sim::Tick at, atm::Vci vci,
                         std::vector<std::uint8_t>&& data)>;

  ProtoStack(sim::Engine& eng, const host::MachineConfig& mc, host::HostCpu& cpu,
             mem::DataCache& cache, mem::PhysicalMemory& pm,
             host::OsirisDriver& drv, StackConfig cfg);

  /// Unregisters the reset hook attach() installed (the driver outlives
  /// the stacks built on it; see Node/Adc member ordering).
  ~ProtoStack();

  ProtoStack(const ProtoStack&) = delete;
  ProtoStack& operator=(const ProtoStack&) = delete;

  /// Installs this stack as the driver's receive handler.
  void attach();

  /// Partial reassemblies currently outstanding (a post-drain leak check:
  /// after traffic quiesces and lost fragments age out or are reset away,
  /// this should be zero).
  [[nodiscard]] std::size_t pending_reassemblies() const { return reasm_.size(); }

  /// Switches outgoing protocol headers to a preallocated slot ring in
  /// `space`. Application device channels need this: the board only DMAs
  /// from authorized pages, so headers — like payloads — must come from
  /// registered memory (expose the pages via header_buffers()).
  void use_header_arena(mem::AddressSpace& space, std::size_t slots = 256);

  /// Physical buffers backing the header arena (for ADC authorization).
  [[nodiscard]] std::vector<mem::PhysBuffer> header_buffers() const;

  void set_sink(Sink s) { sink_ = std::move(s); }

  /// Sends `payload` on `vci`. Returns the time the sending CPU is free.
  sim::Tick send(sim::Tick at, atm::Vci vci, const Message& payload);

  /// The driver this stack sits on (e.g. for tx-completion watermarks).
  [[nodiscard]] host::OsirisDriver& driver() { return *drv_; }

  /// Writes `bytes` at `va` as CPU stores — through the data cache — so a
  /// cached copy of a previous occupant never goes stale. Reused transmit
  /// slots (header/frame arenas) MUST be filled this way: a raw physical
  /// write leaves old bytes in the cache, and a later checksum computed
  /// through the cache then disagrees with what the board DMAs from
  /// memory.
  void write_through(mem::AddressSpace& space, mem::VirtAddr va,
                     std::span<const std::uint8_t> bytes);

  // Statistics.
  [[nodiscard]] const sim::Summary& buffers_per_pdu() const { return bufs_per_pdu_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t checksum_failures() const { return cksum_failures_; }
  [[nodiscard]] std::uint64_t stale_recoveries() const { return stale_recoveries_; }
  [[nodiscard]] std::uint64_t reassembly_drops() const { return reassembly_drops_; }

 private:
  struct Fragment {
    std::uint32_t offset = 0;
    std::vector<std::uint8_t> data;        // bytes as READ (cached if checksumming)
    std::vector<host::RxBuffer> retained;  // buffers held until verification
  };
  struct Reassembly {
    std::map<std::uint32_t, Fragment> frags;  // by offset
    std::uint32_t total = 0;  // 0 until the last fragment arrives
    std::uint32_t have = 0;
  };

  sim::Tick on_pdu(sim::Tick at, host::RxPduView& pdu);
  void on_driver_reset();
  sim::Tick deliver_udp(sim::Tick at, atm::Vci vci, Reassembly&& r);
  sim::Tick checksum_cost(sim::Tick at, const mem::AccessCost& c,
                          std::uint64_t bytes);
  /// Prepends a header, via the arena when configured.
  void add_header(Message& m, std::span<const std::uint8_t> bytes);

  sim::Engine* eng_;
  const host::MachineConfig* mc_;
  host::HostCpu* cpu_;
  mem::DataCache* cache_;
  mem::PhysicalMemory* pm_;
  host::OsirisDriver* drv_;
  StackConfig cfg_;
  Sink sink_;
  int reset_hook_token_ = -1;
  std::uint16_t next_ip_id_ = 1;
  std::map<std::uint64_t, Reassembly> reasm_;  // (vci<<32|ip_id)
  mem::AddressSpace* hdr_space_ = nullptr;
  std::vector<mem::VirtAddr> hdr_slots_;
  std::size_t next_hdr_ = 0;

  sim::Summary bufs_per_pdu_;
  std::uint64_t delivered_ = 0;
  std::uint64_t cksum_failures_ = 0;
  std::uint64_t stale_recoveries_ = 0;
  std::uint64_t reassembly_drops_ = 0;
};

}  // namespace osiris::proto
