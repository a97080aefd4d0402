#include "mem/cache.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace osiris::mem {

DataCache::DataCache(PhysicalMemory& pm, CacheConfig cfg) : pm_(&pm), cfg_(cfg) {
  if (cfg_.size_bytes % cfg_.line_bytes != 0) {
    throw std::invalid_argument("DataCache: size not a multiple of line size");
  }
  lines_.resize(cfg_.size_bytes / cfg_.line_bytes);
  data_.resize(cfg_.size_bytes);
}

AccessCost DataCache::cpu_read(PhysAddr addr, std::span<std::uint8_t> dst) {
  AccessCost cost;
  std::size_t done = 0;
  while (done < dst.size()) {
    const PhysAddr a = addr + static_cast<PhysAddr>(done);
    const PhysAddr line_base = a - (a % cfg_.line_bytes);
    const std::uint32_t off = a - line_base;
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
      const auto truth = pm_->view(line_base, cfg_.line_bytes);
      if (!std::equal(data.begin(), data.end(), truth.begin())) {
        ++stale_reads_;
      }
    } else {
      ++cost.misses;
      cost.mem_words += cfg_.line_bytes / 4;
      line.valid = true;
      line.tag = tag;
      pm_->read(line_base, data);
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
    const PhysAddr line_base = a - (a % cfg_.line_bytes);
    const std::uint32_t off = a - line_base;
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
  const PhysAddr first = addr - (addr % cfg_.line_bytes);
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
  const PhysAddr first = addr - (addr % cfg_.line_bytes);
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
  const PhysAddr first = addr - (addr % cfg_.line_bytes);
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
