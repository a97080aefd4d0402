// Machine models: DECstation 5000/200 and DEC 3000/600.
//
// The simulation does not emulate MIPS or Alpha instruction streams;
// instead, host software (driver, protocols, test programs) is executed as
// work items with costs drawn from this config. Every constant is either
// taken directly from the paper or derived from the paper's measurements;
// see machine.cc for the derivations.
//
// The two machines differ in the three ways the paper leans on (§2.3,
// §2.7, §4):
//  * memory system: on the 5000/200 every memory transaction occupies the
//    TURBOchannel, so CPU memory traffic and DMA serialize; the 3000/600
//    has a crossbar connecting TURBOchannel, memory and cache, so they
//    proceed concurrently;
//  * cache coherence: the 5000/200's cache is not updated by DMA (stale
//    data; software invalidation at ~1 cycle/word); the 3000/600's is;
//  * raw speed: 25 MHz R3000 vs 175 MHz Alpha — software path costs are
//    correspondingly smaller on the 3000/600.
#pragma once

#include <cstdint>
#include <string>

#include "mem/cache.h"
#include "sim/time.h"
#include "tc/turbochannel.h"

namespace osiris::host {

/// Cycles a cache line fill stalls the CPU, the same on both machines.
inline constexpr double kMissPenaltyCyclesPerLine = 20.0;

struct MachineConfig {
  std::string name;
  double cpu_hz = 25e6;
  mem::CacheConfig cache;
  bool crossbar = false;    // DMA concurrent with CPU memory traffic?
  double mem_word_ns = 40;  // CPU main-memory word time when crossbar

  // Cache timing: cycles per 32-bit word that hits.
  double hit_cycles_per_word = 1.0;

  // Fixed software path costs.
  sim::Duration interrupt_service = 0;  // fielding one interrupt
  sim::Duration thread_dispatch = 0;    // waking the driver/ADC thread
  sim::Duration app_send = 0;           // test program, per message
  sim::Duration app_recv = 0;
  sim::Duration driver_tx_pdu = 0;      // driver, per transmitted PDU
  sim::Duration driver_tx_buffer = 0;   // per physical buffer queued
  sim::Duration driver_rx_pdu = 0;      // driver, per received PDU
  sim::Duration driver_rx_buffer = 0;   // per receive buffer processed
  sim::Duration proto_ip = 0;           // per IP fragment, per side
  sim::Duration proto_udp = 0;          // per UDP PDU, per side (no checksum)
  sim::Duration per_kb_compute = 0;     // size-dependent software cost

  // Per-KB main-memory traffic of the software path (on top of the fixed
  // per-PDU words in host/driver.cc) — contends with DMA on serial-bus
  // machines.
  std::uint32_t mem_words_per_kb = 0;

  // Page wiring (§2.4): the Mach standard interface vs the low-level path.
  sim::Duration page_wire_fast = 0;  // per page
  sim::Duration page_wire_slow = 0;  // per page

  // Protection-domain machinery (§3).
  sim::Duration syscall = 0;           // user/kernel crossing
  sim::Duration domain_crossing = 0;   // microkernel IPC hop (control)
  sim::Duration fbuf_cached_transfer = 0;       // per fbuf, mapped case
  sim::Duration fbuf_uncached_map_per_page = 0; // page remap cost

  // Derived helpers ------------------------------------------------------

  [[nodiscard]] sim::Duration cpu_cycles(double n) const {
    return sim::cycles(n, cpu_hz);
  }

  /// CPU time for touching `bytes` of data with the cache behaviour in `c`
  /// (as returned by DataCache::cpu_read/cpu_write) plus `alu_cycles_per_word`
  /// of per-word processing (e.g. checksumming). Excludes the bus occupancy
  /// of c.mem_words, which the caller charges separately so it can contend
  /// with DMA on serial-bus machines.
  [[nodiscard]] sim::Duration cache_cpu_time(const mem::AccessCost& c,
                                             std::uint64_t bytes,
                                             double alu_cycles_per_word) const {
    const double words = static_cast<double>(bytes) / 4.0;
    return cpu_cycles(words * (hit_cycles_per_word + alu_cycles_per_word) +
                      static_cast<double>(c.misses) *
                          kMissPenaltyCyclesPerLine);
  }
};

/// DECstation 5000/200: 25 MHz MIPS R3000, serial TURBOchannel memory
/// system, 64 KB direct-mapped non-coherent data cache.
MachineConfig decstation_5000_200();

/// DEC 3000/600: 175 MHz Alpha, crossbar memory system, DMA-coherent
/// (update) cache.
MachineConfig dec_3000_600();

/// A unit of host software execution: pure compute plus main-memory word
/// traffic. On serial-bus machines the memory phase occupies the
/// TURBOchannel and therefore contends with DMA.
struct Work {
  sim::Duration compute = 0;
  std::uint64_t mem_words = 0;
};

/// The host CPU: a serial resource executing Work items. Host software
/// runs as one sequential thread, so work runs in booking order: each item
/// starts behind the latest one booked, even if it is due earlier.
class HostCpu {
 public:
  HostCpu(sim::Engine& eng, const MachineConfig& cfg, tc::TurboChannel& bus)
      : cfg_(&cfg), bus_(&bus), cpu_(eng, cfg.name + ".cpu") {}

  /// Executes `w` starting no earlier than `from` and after all work
  /// booked before it; returns completion time.
  sim::Tick exec(sim::Tick from, const Work& w) {
    const sim::Tick start = std::max(from, cpu_.free_at());
    sim::Tick t = start + w.compute;
    if (w.mem_words > 0) {
      if (cfg_->crossbar) {
        t += static_cast<sim::Duration>(static_cast<double>(w.mem_words) *
                                        cfg_->mem_word_ns * 1e3);
      } else {
        t = bus_->cpu_memory(t, w.mem_words);  // serialize with DMA
      }
    }
    cpu_.reserve_at(start, t - start);
    return t;
  }

  [[nodiscard]] sim::Resource& resource() { return cpu_; }

  /// Programmed I/O to the option slot (dual-port RAM): the CPU stalls and
  /// the TURBOchannel is occupied for the duration on both machines.
  sim::Tick pio(sim::Tick from, std::uint32_t read_words, std::uint32_t write_words) {
    const sim::Tick start = std::max(from, cpu_.free_at());
    const sim::Duration cost =
        bus_->pio_read_cost(read_words) + bus_->pio_write_cost(write_words);
    const sim::Tick done = bus_->bus().reserve_at(start, cost);
    cpu_.reserve_at(start, done - start);
    return done;
  }

 private:
  const MachineConfig* cfg_;
  tc::TurboChannel* bus_;
  sim::Resource cpu_;
};

}  // namespace osiris::host
