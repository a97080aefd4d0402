#include "mem/paging.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/rng.h"

namespace osiris::mem {

FrameAllocator::FrameAllocator(std::size_t mem_bytes, bool interleave,
                               std::uint64_t seed)
    : total_frames_(mem_bytes / kPageSize),
      free_count_(total_frames_),
      order_(total_frames_),
      issued_(total_frames_, false),
      allocated_(total_frames_, false),
      next_(std::make_unique_for_overwrite<std::uint32_t[]>(total_frames_)),
      prev_(std::make_unique_for_overwrite<std::uint32_t[]>(total_frames_)) {
  for (std::size_t i = 0; i < total_frames_; ++i) order_[i] = static_cast<std::uint32_t>(i);
  if (interleave) {
    // Fisher-Yates with the deterministic sim RNG: models the arbitrary
    // frame ordering of a long-running system's free list.
    sim::Rng rng(seed);
    for (std::size_t i = total_frames_; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
  }
}

void FrameAllocator::push_back(std::uint32_t frame) {
  next_[frame] = kNil;
  prev_[frame] = tail_;
  (tail_ == kNil ? head_ : next_[tail_]) = frame;
  tail_ = frame;
}

void FrameAllocator::unlink(std::uint32_t frame) {
  const std::uint32_t next = next_[frame];
  const std::uint32_t prev = prev_[frame];
  (prev == kNil ? head_ : next_[prev]) = next;
  (next == kNil ? tail_ : prev_[next]) = prev;
}

PhysAddr FrameAllocator::alloc() {
  // Skip the frames alloc_contiguous() took out of turn.
  while (cursor_ < total_frames_ && issued_[order_[cursor_]]) ++cursor_;
  std::uint32_t frame = kNil;
  if (cursor_ < total_frames_) {
    frame = order_[cursor_++];
    issued_[frame] = true;
  } else if (head_ != kNil) {
    frame = head_;
    unlink(frame);
  } else {
    throw std::runtime_error("FrameAllocator: out of frames");
  }
  allocated_[frame] = true;
  --free_count_;
  return frame * kPageSize;
}

std::optional<PhysAddr> FrameAllocator::alloc_contiguous(std::uint32_t n) {
  if (n == 0) return std::nullopt;
  if (n == 1) return alloc();
  // Best-effort first-fit scan for a run of n free frames (the paper's
  // proposed OS support is explicitly best-effort). No run starts below
  // the lowest free frame, so the scan skips the allocated ones up to it.
  while (low_free_ < total_frames_ && allocated_[low_free_]) ++low_free_;
  std::uint32_t run = 0;
  for (std::uint32_t f = low_free_; f < total_frames_; ++f) {
    run = allocated_[f] ? 0 : run + 1;
    if (run == n) {
      const std::uint32_t first = f + 1 - n;
      for (std::uint32_t g = first; g <= f; ++g) {
        allocated_[g] = true;
        if (issued_[g]) {
          unlink(g);
        } else {
          issued_[g] = true;
        }
      }
      free_count_ -= n;
      return first * kPageSize;
    }
  }
  return std::nullopt;
}

void FrameAllocator::free(PhysAddr frame_base) {
  const std::uint32_t frame = frame_base / kPageSize;
  if (frame >= total_frames_ || !allocated_[frame]) {
    throw std::logic_error("FrameAllocator: bad free");
  }
  allocated_[frame] = false;
  low_free_ = std::min(low_free_, frame);
  push_back(frame);
  ++free_count_;
}

AddressSpace::AddressSpace(PhysicalMemory& pm, FrameAllocator& fa, std::string name)
    : pm_(&pm), fa_(&fa), name_(std::move(name)) {}

AddressSpace::~AddressSpace() {
  for (const PhysAddr f : owned_frames_) fa_->free(f);
}

VirtAddr AddressSpace::map_pages_at_cursor(const std::vector<PhysAddr>& frames,
                                           std::uint32_t offset_in_page) {
  const std::uint32_t first_vpage = next_vpage_;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    table_[first_vpage + static_cast<std::uint32_t>(i)] = frames[i];
  }
  next_vpage_ += static_cast<std::uint32_t>(frames.size());
  return (first_vpage << kPageShift) + offset_in_page;
}

VirtAddr AddressSpace::alloc(std::uint32_t len, std::uint32_t offset_in_page) {
  if (len == 0) throw std::invalid_argument("AddressSpace::alloc: zero length");
  if (offset_in_page >= kPageSize) {
    throw std::invalid_argument("AddressSpace::alloc: offset >= page size");
  }
  const std::uint32_t npages = (offset_in_page + len + kPageSize - 1) / kPageSize;
  std::vector<PhysAddr> frames;
  frames.reserve(npages);
  for (std::uint32_t i = 0; i < npages; ++i) {
    const PhysAddr f = fa_->alloc();
    frames.push_back(f);
    owned_frames_.push_back(f);
  }
  return map_pages_at_cursor(frames, offset_in_page);
}

PhysAddr AddressSpace::translate(VirtAddr va) const {
  const auto it = table_.find(page_of(va));
  if (it == table_.end()) {
    throw std::out_of_range("AddressSpace(" + name_ + "): unmapped va " +
                            std::to_string(va));
  }
  return it->second + page_offset(va);
}

bool AddressSpace::mapped(VirtAddr va) const {
  return table_.contains(page_of(va));
}

std::vector<PhysBuffer> AddressSpace::scatter(VirtAddr va, std::uint32_t len) const {
  std::vector<PhysBuffer> out;
  std::uint32_t remaining = len;
  VirtAddr cur = va;
  while (remaining > 0) {
    const std::uint32_t in_page = std::min(remaining, kPageSize - page_offset(cur));
    const PhysAddr pa = translate(cur);
    if (!out.empty() && out.back().addr + out.back().len == pa) {
      out.back().len += in_page;  // physically contiguous with previous run
    } else {
      out.push_back({pa, in_page});
    }
    cur += in_page;
    remaining -= in_page;
  }
  return out;
}

void AddressSpace::write(VirtAddr va, std::span<const std::uint8_t> src) {
  std::size_t done = 0;
  for (const PhysBuffer& pb : scatter(va, static_cast<std::uint32_t>(src.size()))) {
    pm_->write(pb.addr, src.subspan(done, pb.len));
    done += pb.len;
  }
}

void AddressSpace::read(VirtAddr va, std::span<std::uint8_t> dst) const {
  std::size_t done = 0;
  for (const PhysBuffer& pb : scatter(va, static_cast<std::uint32_t>(dst.size()))) {
    pm_->read(pb.addr, dst.subspan(done, pb.len));
    done += pb.len;
  }
}

}  // namespace osiris::mem
