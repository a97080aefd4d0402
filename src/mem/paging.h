// Page-based virtual memory: frame allocator, address spaces, scatter lists.
//
// The paper's §2.2 problem — contiguous virtual pages are generally NOT
// contiguous in physical memory, so a PDU fragments into many physical
// buffers — only manifests if the frame allocator actually hands out
// non-adjacent frames. The allocator therefore interleaves its free list by
// default (modelling a long-running system's fragmented memory) and offers
// best-effort contiguous allocation as the paper's proposed mitigation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/phys.h"

namespace osiris::mem {

using VirtAddr = std::uint32_t;

constexpr std::uint32_t kPageSize = 4096;  // paper's example page size
constexpr std::uint32_t kPageShift = 12;

constexpr std::uint32_t page_of(std::uint32_t addr) { return addr >> kPageShift; }
constexpr std::uint32_t page_offset(std::uint32_t addr) { return addr & (kPageSize - 1); }
constexpr std::uint32_t page_base(std::uint32_t addr) { return addr & ~(kPageSize - 1); }

/// Allocates physical page frames from a shared pool. The free list is a
/// FIFO: alloc() takes the oldest free frame and free() queues a frame
/// behind every other, so a freed frame is re-issued only after the rest.
///
/// The FIFO is kept in two parts: the never-issued frames, read off the
/// shuffled order by a cursor, and behind them the freed frames, threaded
/// through per-frame links that only free() writes. Every never-issued
/// frame precedes every freed one, so alloc() drains the first part before
/// the second, and building the allocator writes no link.
class FrameAllocator {
 public:
  /// `interleave`: if true (default), the free list is shuffled so that
  /// successive allocations are physically discontiguous, as on a
  /// long-running host. If false, frames come out in ascending order.
  FrameAllocator(std::size_t mem_bytes, bool interleave = true,
                 std::uint64_t seed = 1);

  /// Allocates one frame; returns its physical base address.
  PhysAddr alloc();

  /// Best-effort allocation of `n` physically contiguous frames (§2.2's
  /// proposed OS support). Returns base address or nullopt.
  std::optional<PhysAddr> alloc_contiguous(std::uint32_t n);

  void free(PhysAddr frame_base);

  [[nodiscard]] std::size_t free_frames() const { return free_count_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  void push_back(std::uint32_t frame);  // onto the freed list's tail
  void unlink(std::uint32_t frame);     // O(1), from anywhere in the freed list

  std::size_t total_frames_;
  std::size_t free_count_;
  // Every frame in issue order. The never-issued frames are those of
  // order_[cursor_..] whose issued_ bit is clear; alloc_contiguous() may
  // have taken some of them out of turn.
  std::vector<std::uint32_t> order_;
  std::size_t cursor_ = 0;
  std::vector<bool> issued_;     // has left order_, by frame number
  std::vector<bool> allocated_;  // by frame number
  // The freed list, threaded through per-frame links (frame numbers; kNil
  // ends it). Only a frame on it has meaningful links, so they are left
  // unwritten until free() links the frame in.
  std::unique_ptr<std::uint32_t[]> next_;
  std::unique_ptr<std::uint32_t[]> prev_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  // Every frame below this one is allocated, so alloc_contiguous() starts
  // its scan here; free() lowers it.
  std::uint32_t low_free_ = 0;
};

/// A protection domain's virtual address space: a page table mapping
/// virtual pages to physical frames.
class AddressSpace {
 public:
  AddressSpace(PhysicalMemory& pm, FrameAllocator& fa, std::string name);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Allocates `len` bytes of virtually contiguous memory starting at a
  /// page boundary plus `offset_in_page` (non-zero models unaligned
  /// application buffers). Returns the virtual address of the first byte.
  VirtAddr alloc(std::uint32_t len, std::uint32_t offset_in_page = 0);

  /// Translates a virtual address. Throws if unmapped.
  [[nodiscard]] PhysAddr translate(VirtAddr va) const;

  [[nodiscard]] bool mapped(VirtAddr va) const;

  /// Produces the physical buffer list for [va, va+len): one entry per run
  /// of physically contiguous bytes. This is exactly what the driver hands
  /// to the board (paper §2.2, Figure 1).
  [[nodiscard]] std::vector<PhysBuffer> scatter(VirtAddr va, std::uint32_t len) const;

  // Data access through the page table (no cache model; see CachedView for
  // cost-accounted CPU access).
  void write(VirtAddr va, std::span<const std::uint8_t> src);
  void read(VirtAddr va, std::span<std::uint8_t> dst) const;

  [[nodiscard]] PhysicalMemory& physical() { return *pm_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  VirtAddr map_pages_at_cursor(const std::vector<PhysAddr>& frames,
                               std::uint32_t offset_in_page);

  PhysicalMemory* pm_;
  FrameAllocator* fa_;
  std::string name_;
  std::unordered_map<std::uint32_t, PhysAddr> table_;  // vpage -> frame base
  std::uint32_t next_vpage_ = 1;  // page 0 kept unmapped (null page)
  std::vector<PhysAddr> owned_frames_;
};

}  // namespace osiris::mem
