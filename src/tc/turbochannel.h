// TURBOchannel bus model.
//
// The TURBOchannel is a 32-bit synchronous bus; on the machines in the
// paper it runs at 25 MHz, giving 800 Mbps of raw data bandwidth. A DMA
// transaction costs a fixed per-transaction overhead plus one cycle per
// 32-bit word: 13 cycles of overhead for reads (board reading host memory,
// i.e. the transmit direction) and 8 for writes (receive direction). These
// constants reproduce the paper's §2.5.1 numbers exactly:
//
//   44-byte read:  11/(11+13) * 800 = 367 Mbps     (single-cell transmit)
//   44-byte write: 11/(11+8)  * 800 = 463 Mbps     (single-cell receive)
//   88-byte read:  22/(22+13) * 800 = 503 Mbps     (double-cell transmit)
//   88-byte write: 22/(22+8)  * 800 = 587 Mbps     (double-cell receive)
//
// On the DECstation 5000/200 every memory transaction occupies the bus, so
// CPU main-memory traffic and DMA serialize; the DEC 3000/600's crossbar
// lets them proceed concurrently. That distinction is decided by the host
// CPU model (which either reserves this bus for its memory phases or not);
// this class only arbitrates and costs transactions.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/time.h"

namespace osiris::tc {

/// Bus clock and width: 25 MHz, 32-bit words.
constexpr double kClockHz = 25e6;
constexpr std::uint32_t kWordBytes = 4;
/// One bus cycle, 40 ns: a whole number of ticks, so a DMA's cost is an
/// integer product. It equals sim::cycles(n, kClockHz) for every n below
/// about 36.9M cycles, past which the double form starts to round.
constexpr sim::Duration kCycleTicks = 40'000;
static_assert(kCycleTicks == sim::cycle(kClockHz));
/// Fixed cycles per DMA transaction: reads (transmit) and writes (receive).
constexpr std::uint32_t kDmaReadOverheadCycles = 13;
constexpr std::uint32_t kDmaWriteOverheadCycles = 8;
/// Programmed I/O: per-word costs for the host CPU touching option-slot
/// memory (the dual-port RAM). Word reads across the TURBOchannel carry a
/// high penalty (§2.7); writes post through a write buffer.
constexpr std::uint32_t kPioReadCycles = 15;
constexpr std::uint32_t kPioWriteCycles = 4;

class TurboChannel {
 public:
  explicit TurboChannel(sim::Engine& eng) : bus_(eng, "turbochannel") {}

  [[nodiscard]] sim::Resource& bus() { return bus_; }

  [[nodiscard]] std::uint32_t words(std::uint32_t bytes) const {
    return (bytes + kWordBytes - 1) / kWordBytes;
  }

  /// Pure cost (no arbitration) of a DMA transaction moving `bytes`.
  [[nodiscard]] sim::Duration dma_read_cost(std::uint32_t bytes) const {
    return (sim::Duration{kDmaReadOverheadCycles} + words(bytes)) * kCycleTicks;
  }
  [[nodiscard]] sim::Duration dma_write_cost(std::uint32_t bytes) const {
    return (sim::Duration{kDmaWriteOverheadCycles} + words(bytes)) * kCycleTicks;
  }

  /// Reserves the bus for a DMA read of `bytes` starting no earlier than
  /// `from`; returns the completion time.
  sim::Tick dma_read(sim::Tick from, std::uint32_t bytes) {
    dma_bytes_ += bytes;
    ++dma_transactions_;
    return bus_.reserve_at(from, dma_read_cost(bytes));
  }

  sim::Tick dma_write(sim::Tick from, std::uint32_t bytes) {
    dma_bytes_ += bytes;
    ++dma_transactions_;
    return bus_.reserve_at(from, dma_write_cost(bytes));
  }

  /// Cost of `n` PIO word reads / writes by the host CPU.
  [[nodiscard]] sim::Duration pio_read_cost(std::uint32_t n_words = 1) const {
    return sim::cycles(static_cast<double>(kPioReadCycles) * n_words, kClockHz);
  }
  [[nodiscard]] sim::Duration pio_write_cost(std::uint32_t n_words = 1) const {
    return sim::cycles(static_cast<double>(kPioWriteCycles) * n_words, kClockHz);
  }

  /// Reserves the bus for CPU main-memory traffic of `n_words` (used only
  /// on machines without a crossbar): DMA and CPU memory phases serialize,
  /// which is the §4 contention the paper reports on the 5000/200.
  ///
  /// Modelling note: real bus arbitration interleaves at word granularity,
  /// while this books each memory phase as one block. The aggregate bus
  /// occupancy (what throughput depends on) is identical; the one side
  /// effect — cells briefly backing up behind a block on a live link — is
  /// absorbed by the receive processor's header FIFO depth (see
  /// kFifoDepth in board/rx.cc).
  sim::Tick cpu_memory(sim::Tick from, std::uint64_t n_words) {
    return bus_.reserve_at(from,
                           sim::cycles(static_cast<double>(n_words), kClockHz));
  }

  [[nodiscard]] std::uint64_t dma_bytes() const { return dma_bytes_; }
  [[nodiscard]] std::uint64_t dma_transactions() const { return dma_transactions_; }

 private:
  sim::Resource bus_;
  std::uint64_t dma_bytes_ = 0;
  std::uint64_t dma_transactions_ = 0;
};

}  // namespace osiris::tc
