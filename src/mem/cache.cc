#include "mem/cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace osiris::mem {

DataCache::DataCache(PhysicalMemory& pm, CacheConfig cfg) : pm_(&pm), cfg_(cfg) {
  // The line size first: the line count divides by it.
  if (!std::has_single_bit(cfg_.line_bytes) ||
      cfg_.size_bytes % cfg_.line_bytes != 0 ||
      !std::has_single_bit(cfg_.size_bytes / cfg_.line_bytes)) {
    throw std::invalid_argument(
        "DataCache: line size and line count must be nonzero powers of two");
  }
  const std::uint32_t n_lines = cfg_.size_bytes / cfg_.line_bytes;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.line_bytes));
  index_mask_ = n_lines - 1;
  tag_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.size_bytes));
  lines_.resize(n_lines);
  data_ = std::make_unique_for_overwrite<std::uint8_t[]>(cfg_.size_bytes);
}

AccessCost DataCache::cpu_read(PhysAddr addr, std::span<std::uint8_t> dst) {
  AccessCost cost;
  std::size_t done = 0;
  while (done < dst.size()) {
    const PhysAddr a = addr + static_cast<PhysAddr>(done);
    const PhysAddr base = line_base(a);
    const std::uint32_t off = a - base;
    const std::uint32_t n = std::min<std::uint32_t>(
        cfg_.line_bytes - off, static_cast<std::uint32_t>(dst.size() - done));
    const std::uint32_t index = index_of(a);
    Line& line = lines_[index];
    const auto data = data_of(index);
    const std::uint32_t tag = tag_of(a);
    if (line.valid && line.tag == tag) {
      ++cost.hits;
      // Possibly stale: compare with memory for statistics only; the data
      // we return is the cached copy, as the real hardware would.
      const auto truth = pm_->view(base, cfg_.line_bytes);
      if (!std::equal(data.begin(), data.end(), truth.begin())) {
        ++stale_reads_;
      }
    } else {
      ++cost.misses;
      cost.mem_words += cfg_.line_bytes / 4;
      // Fill first: a fill that throws leaves the line as it was.
      pm_->read(base, data);
      line.valid = true;
      line.tag = tag;
    }
    std::copy_n(data.begin() + off, n, dst.begin() + done);
    done += n;
  }
  return cost;
}

AccessCost DataCache::cpu_write(PhysAddr addr, std::span<const std::uint8_t> src) {
  AccessCost cost;
  // Write-through: memory always updated; each word crosses to memory.
  pm_->write(addr, src);
  cost.mem_words += (src.size() + 3) / 4;
  std::size_t done = 0;
  while (done < src.size()) {
    const PhysAddr a = addr + static_cast<PhysAddr>(done);
    const PhysAddr base = line_base(a);
    const std::uint32_t off = a - base;
    const std::uint32_t n = std::min<std::uint32_t>(
        cfg_.line_bytes - off, static_cast<std::uint32_t>(src.size() - done));
    const std::uint32_t index = index_of(a);
    const Line& line = lines_[index];
    if (line.valid && line.tag == tag_of(a)) {
      ++cost.hits;
      std::copy_n(src.begin() + done, n, data_of(index).begin() + off);
    }
    done += n;
  }
  return cost;
}

bool DataCache::dma_write(PhysAddr addr, std::span<const std::uint8_t> src) {
  if (!pm_->dma_write(addr, src)) return false;
  // Walk the lines the transfer overlaps.
  const PhysAddr first = line_base(addr);
  const PhysAddr end = addr + static_cast<PhysAddr>(src.size());
  for (PhysAddr base = first; base < end; base += cfg_.line_bytes) {
    const std::uint32_t index = index_of(base);
    const Line& line = lines_[index];
    if (!line.valid || line.tag != tag_of(base)) continue;
    if (cfg_.coherence == DmaCoherence::kUpdate) {
      pm_->read(base, data_of(index));  // hardware refreshes the cached copy
    } else {
      ++dma_stale_lines_;  // line now holds stale data
    }
  }
  return true;
}

std::size_t DataCache::dma_scatter(std::span<const PhysBuffer> segs,
                                   std::span<const std::uint8_t> src) {
  std::size_t total = 0;
  for (const auto& s : segs) total += s.len;
  if (src.size() < total) {
    throw std::out_of_range("DataCache::dma_scatter: src span too short");
  }
  std::size_t off = 0;
  std::size_t ok = 0;
  for (const auto& s : segs) {
    if (dma_write(s.addr, src.subspan(off, s.len))) ++ok;
    off += s.len;
  }
  return ok;
}

std::uint64_t DataCache::invalidate(PhysAddr addr, std::uint32_t len) {
  const PhysAddr first = line_base(addr);
  const PhysAddr end = addr + len;
  for (PhysAddr base = first; base < end; base += cfg_.line_bytes) {
    Line& line = lines_[index_of(base)];
    if (line.valid && line.tag == tag_of(base)) line.valid = false;
  }
  return (len + 3) / 4;  // invalidation cost is per 32-bit word of range
}

void DataCache::invalidate_all() {
  for (auto& line : lines_) line.valid = false;
}

bool DataCache::is_stale(PhysAddr addr, std::uint32_t len) const {
  const PhysAddr first = line_base(addr);
  const PhysAddr end = addr + len;
  for (PhysAddr base = first; base < end; base += cfg_.line_bytes) {
    const std::uint32_t index = index_of(base);
    const Line& line = lines_[index];
    if (!line.valid || line.tag != tag_of(base)) continue;
    const auto data = data_of(index);
    const auto truth = pm_->view(base, cfg_.line_bytes);
    if (!std::equal(data.begin(), data.end(), truth.begin())) return true;
  }
  return false;
}

}  // namespace osiris::mem
