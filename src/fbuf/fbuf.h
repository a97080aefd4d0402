// Fast buffers (fbufs) — §3.1 and [Druschel & Peterson, SOSP'93].
//
// An fbuf is a page-sized buffer passed across protection-domain
// boundaries by a combination of shared memory and page remapping. An fbuf
// already mapped into every domain of a data path is "cached": handing it
// to the next domain costs only a pointer exchange. An uncached fbuf must
// be remapped into each receiving domain, an order of magnitude more
// expensive.
//
// The pool keeps preallocated cached fbufs for the 16 most recently used
// data paths (LRU) plus a single queue of uncached fbufs — mirroring the
// OSIRIS driver's strategy. Early demultiplexing (the board choosing a
// buffer by VCI) is what makes the cached case possible: the incoming
// packet lands directly in a buffer that is already mapped into the right
// set of domains. Here the pool is a cost model only: no receive channel
// places PDUs in a path's fbufs (EXPERIMENTS.md, deviation 6).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "host/machine.h"
#include "mem/paging.h"
#include "sim/engine.h"

namespace osiris::fbuf {

/// A protection domain identifier (0 = kernel).
using DomainId = int;

struct Fbuf {
  mem::PhysAddr pa = 0;
  std::uint32_t bytes = mem::kPageSize;
  int path = -1;     // -1: uncached
  bool cached = false;
};

class FbufPool {
 public:
  /// Preallocated cached fbufs per path.
  static constexpr std::size_t kBufsPerPath = 32;

  FbufPool(sim::Engine& eng, const host::MachineConfig& mc, host::HostCpu& cpu,
           mem::FrameAllocator& frames);

  /// Registers a data path: the ordered list of domains a PDU traverses
  /// (e.g. {driver, protocol server, application}). Returns the path id.
  int create_path(std::vector<DomainId> domains);

  /// Allocates a buffer for `path`, preferring the path's cached pool.
  /// Promotes the path to most-recently-used; if the path was not among
  /// the cached set, it is installed (evicting the LRU path) and — since
  /// mapping its pool takes time — this first allocation returns an
  /// uncached buffer. Returns the buffer and the completion time.
  std::pair<Fbuf, sim::Tick> alloc(sim::Tick at, int path);

  /// Transfers the fbuf across one domain boundary of its path. Cached:
  /// pointer passing. Uncached: per-page remap into the target domain.
  sim::Tick transfer(sim::Tick at, const Fbuf& f);

  /// Full delivery along a path with `hops` domain crossings.
  sim::Tick deliver(sim::Tick at, const Fbuf& f, std::size_t hops);

  void free(sim::Tick at, Fbuf f);

  // Statistics.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct Path {
    std::vector<DomainId> domains;
    std::deque<mem::PhysAddr> free;    // available cached fbufs
    bool cached = false;
  };

  void install(sim::Tick at, int path, sim::Tick* done);

  sim::Engine* eng_;
  const host::MachineConfig* mc_;
  host::HostCpu* cpu_;
  mem::FrameAllocator* frames_;
  std::vector<Path> paths_;
  std::list<int> mru_;  // front = most recent, members = cached paths
  std::deque<mem::PhysAddr> uncached_free_;

  std::uint64_t evictions_ = 0;
};

}  // namespace osiris::fbuf
