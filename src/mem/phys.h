// Simulated host physical memory.
//
// A flat byte array addressed by 32-bit physical addresses. All network
// payload in the simulation is real data stored here: DMA engines copy
// bytes in and out of this array, protocol checksums are computed over it,
// and tests verify end-to-end integrity through it.
//
// The bytes live in an anonymous private mapping, which the host kernel
// zero-fills one page at a time on first touch: a node pays only for the
// simulated memory its run actually touches (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "fault/fault.h"

namespace osiris::mem {

using PhysAddr = std::uint32_t;

/// A contiguous run of physical memory: the unit of data exchanged between
/// the host driver and the on-board processors (paper §2.2).
struct PhysBuffer {
  PhysAddr addr = 0;
  std::uint32_t len = 0;

  friend bool operator==(const PhysBuffer&, const PhysBuffer&) = default;
};

/// Move-only: the mapping has exactly one owner, and a moved-from memory
/// has size 0, so every access to it fails its bounds check.
class PhysicalMemory {
 public:
  /// Reserves `bytes` of zeroed memory. Throws std::bad_alloc when the
  /// host cannot map it.
  explicit PhysicalMemory(std::size_t bytes);

  [[nodiscard]] std::size_t size() const {
    return data_ ? data_.get_deleter().bytes : 0;
  }

  /// Reads `dst.size()` bytes starting at `addr`. Bounds-checked.
  void read(PhysAddr addr, std::span<std::uint8_t> dst) const;

  /// Writes `src` starting at `addr`. Bounds-checked.
  void write(PhysAddr addr, std::span<const std::uint8_t> src);

  [[nodiscard]] std::uint8_t byte(PhysAddr addr) const;
  void set_byte(PhysAddr addr, std::uint8_t v);

  /// Enables fault injection on the DMA entry points (not owned).
  void set_fault_plane(fault::FaultPlane* plane) { faults_ = plane; }

  /// DMA-engine entry points. Unlike read()/write(), a transfer that falls
  /// outside physical memory — e.g. the address came from a corrupted
  /// descriptor — or an injected fault::Point::kDmaError does not throw:
  /// the transfer is abandoned, no bytes move, and false is returned (the
  /// controller's error bit; the firmware presses on regardless).
  bool dma_read(PhysAddr addr, std::span<std::uint8_t> dst);
  bool dma_write(PhysAddr addr, std::span<const std::uint8_t> src);

  /// Gather transfer used by the transmit DMA engine. Each segment is an
  /// independent DMA burst: faults are consulted and errors counted per
  /// segment, exactly as if the caller had called dma_read once per buffer.
  /// A failed segment leaves its slice of `dst` zero-filled. Returns the
  /// number of segments that transferred. Throws only on a `dst` span
  /// shorter than the segment list's total length.
  std::size_t dma_gather(std::span<const PhysBuffer> segs,
                         std::span<std::uint8_t> dst);

  [[nodiscard]] std::uint64_t dma_errors() const { return dma_errors_; }

  /// Direct view for the cache model and DMA engines (bounds-checked).
  [[nodiscard]] std::span<const std::uint8_t> view(PhysAddr addr, std::size_t len) const;

 private:
  /// Deleter of the mapping; it also records the mapping's length.
  struct Unmap {
    std::size_t bytes = 0;
    void operator()(std::uint8_t* p) const;
  };

  void check(PhysAddr addr, std::size_t len) const;
  bool dma_ok(PhysAddr addr, std::size_t len);

  std::unique_ptr<std::uint8_t, Unmap> data_;  // null when size() is 0
  fault::FaultPlane* faults_ = nullptr;
  std::uint64_t dma_errors_ = 0;
};

}  // namespace osiris::mem
