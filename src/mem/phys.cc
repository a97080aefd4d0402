#include "mem/phys.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace osiris::mem {
namespace {

/// Maps `bytes` of zero-on-first-touch memory; null for zero bytes.
std::uint8_t* map_zeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Advisory: where transparent huge pages are always on, a first touch
  // would otherwise fault in 2 MiB instead of one page.
  ::madvise(p, bytes, MADV_NOHUGEPAGE);
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

PhysicalMemory::PhysicalMemory(std::size_t bytes)
    : data_(map_zeroed(bytes), Unmap{bytes}) {}

void PhysicalMemory::Unmap::operator()(std::uint8_t* p) const {
  ::munmap(p, bytes);
}

void PhysicalMemory::check(PhysAddr addr, std::size_t len) const {
  if (static_cast<std::size_t>(addr) + len > size()) {
    throw std::out_of_range("PhysicalMemory: access [" + std::to_string(addr) +
                            ", +" + std::to_string(len) + ") beyond " +
                            std::to_string(size()));
  }
}

void PhysicalMemory::read(PhysAddr addr, std::span<std::uint8_t> dst) const {
  check(addr, dst.size());
  std::copy_n(data_.get() + addr, dst.size(), dst.begin());
}

void PhysicalMemory::write(PhysAddr addr, std::span<const std::uint8_t> src) {
  check(addr, src.size());
  std::copy(src.begin(), src.end(), data_.get() + addr);
}

std::uint8_t PhysicalMemory::byte(PhysAddr addr) const {
  check(addr, 1);
  return data_.get()[addr];
}

void PhysicalMemory::set_byte(PhysAddr addr, std::uint8_t v) {
  check(addr, 1);
  data_.get()[addr] = v;
}

bool PhysicalMemory::dma_ok(PhysAddr addr, std::size_t len) {
  if (static_cast<std::size_t>(addr) + len > size() ||
      fault::fires(faults_, fault::Point::kDmaError)) {
    ++dma_errors_;
    return false;
  }
  return true;
}

bool PhysicalMemory::dma_read(PhysAddr addr, std::span<std::uint8_t> dst) {
  if (!dma_ok(addr, dst.size())) return false;
  std::copy_n(data_.get() + addr, dst.size(), dst.begin());
  return true;
}

bool PhysicalMemory::dma_write(PhysAddr addr, std::span<const std::uint8_t> src) {
  if (!dma_ok(addr, src.size())) return false;
  std::copy(src.begin(), src.end(), data_.get() + addr);
  return true;
}

bool PhysicalMemory::dma_move(PhysAddr dst, PhysAddr src, std::size_t len) {
  // One transfer, one fault consultation — but both windows must be in
  // range for the move to start.
  if (static_cast<std::size_t>(src) + len > size()) {
    ++dma_errors_;
    return false;
  }
  if (!dma_ok(dst, len)) return false;
  std::memmove(data_.get() + dst, data_.get() + src, len);
  return true;
}

std::size_t PhysicalMemory::dma_gather(std::span<const PhysBuffer> segs,
                                       std::span<std::uint8_t> dst) {
  std::size_t total = 0;
  for (const auto& s : segs) total += s.len;
  if (dst.size() < total) {
    throw std::out_of_range("PhysicalMemory::dma_gather: dst span too short");
  }
  std::size_t off = 0;
  std::size_t ok = 0;
  for (const auto& s : segs) {
    if (dma_read(s.addr, dst.subspan(off, s.len))) {
      ++ok;
    } else {
      std::fill_n(dst.begin() + static_cast<std::ptrdiff_t>(off), s.len, 0);
    }
    off += s.len;
  }
  return ok;
}

std::size_t PhysicalMemory::dma_scatter(std::span<const PhysBuffer> segs,
                                        std::span<const std::uint8_t> src) {
  std::size_t total = 0;
  for (const auto& s : segs) total += s.len;
  if (src.size() < total) {
    throw std::out_of_range("PhysicalMemory::dma_scatter: src span too short");
  }
  std::size_t off = 0;
  std::size_t ok = 0;
  for (const auto& s : segs) {
    if (dma_write(s.addr, src.subspan(off, s.len))) ++ok;
    off += s.len;
  }
  return ok;
}

std::span<const std::uint8_t> PhysicalMemory::view(PhysAddr addr, std::size_t len) const {
  check(addr, len);
  return {data_.get() + addr, len};
}

std::span<std::uint8_t> PhysicalMemory::view_mut(PhysAddr addr, std::size_t len) {
  check(addr, len);
  return {data_.get() + addr, len};
}

}  // namespace osiris::mem
