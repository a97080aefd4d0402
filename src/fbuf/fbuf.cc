#include "fbuf/fbuf.h"

#include <algorithm>
#include <stdexcept>

namespace osiris::fbuf {

namespace {
constexpr std::size_t kCachedPaths = 16;  // paper: 16 MRU data paths
constexpr std::size_t kUncachedBufs = 64;
}  // namespace

FbufPool::FbufPool(sim::Engine& eng, const host::MachineConfig& mc,
                   host::HostCpu& cpu, mem::FrameAllocator& frames)
    : eng_(&eng), mc_(&mc), cpu_(&cpu), frames_(&frames) {
  for (std::size_t i = 0; i < kUncachedBufs; ++i) {
    uncached_free_.push_back(frames_->alloc());
  }
}

int FbufPool::create_path(std::vector<DomainId> domains) {
  Path p;
  p.domains = std::move(domains);
  for (std::size_t i = 0; i < kBufsPerPath; ++i) {
    p.free.push_back(frames_->alloc());
  }
  paths_.push_back(std::move(p));
  return static_cast<int>(paths_.size()) - 1;
}

void FbufPool::install(sim::Tick at, int path, sim::Tick* done) {
  // Map the path's pool into every domain of the path: per page, per
  // domain, one remap cost. Evict the LRU cached path if the set is full.
  Path& p = paths_[static_cast<std::size_t>(path)];
  if (mru_.size() >= kCachedPaths) {
    const int victim = mru_.back();
    mru_.pop_back();
    paths_[static_cast<std::size_t>(victim)].cached = false;
    ++evictions_;
  }
  mru_.push_front(path);
  p.cached = true;
  const auto crossings =
      static_cast<sim::Duration>(kBufsPerPath * (p.domains.size() - 1));
  *done = cpu_->exec(at, host::Work{mc_->fbuf_uncached_map_per_page * crossings, 0});
}

std::pair<Fbuf, sim::Tick> FbufPool::alloc(sim::Tick at, int path) {
  Path& p = paths_.at(static_cast<std::size_t>(path));
  sim::Tick t = at;

  if (p.cached) {
    // Promote to MRU.
    mru_.remove(path);
    mru_.push_front(path);
    if (!p.free.empty()) {
      const mem::PhysAddr a = p.free.front();
      p.free.pop_front();
      return {Fbuf{a, mem::kPageSize, path, true}, t};
    }
    // Cached pool exhausted: fall through to the uncached queue.
  } else {
    install(at, path, &t);  // becomes cached for *future* allocations
  }

  if (uncached_free_.empty()) throw std::runtime_error("FbufPool: exhausted");
  const mem::PhysAddr a = uncached_free_.front();
  uncached_free_.pop_front();
  return {Fbuf{a, mem::kPageSize, path, false}, t};
}

sim::Tick FbufPool::transfer(sim::Tick at, const Fbuf& f) {
  if (f.cached) {
    return cpu_->exec(at, host::Work{mc_->fbuf_cached_transfer, 0});
  }
  const auto pages =
      static_cast<sim::Duration>((f.bytes + mem::kPageSize - 1) / mem::kPageSize);
  return cpu_->exec(at, host::Work{mc_->fbuf_uncached_map_per_page * pages, 0});
}

sim::Tick FbufPool::deliver(sim::Tick at, const Fbuf& f, std::size_t hops) {
  sim::Tick t = at;
  for (std::size_t i = 0; i < hops; ++i) t = transfer(t, f);
  return t;
}

void FbufPool::free(sim::Tick at, Fbuf f) {
  (void)at;
  if (f.path >= 0 && f.cached) {
    paths_[static_cast<std::size_t>(f.path)].free.push_back(f.pa);
  } else {
    uncached_free_.push_back(f.pa);
  }
}

}  // namespace osiris::fbuf
