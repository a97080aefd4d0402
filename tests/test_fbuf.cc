// fbuf tests: path caching, LRU, transfer cost gap (§3.1).
#include <gtest/gtest.h>

#include "fbuf/fbuf.h"
#include "osiris/node.h"

namespace osiris::fbuf {
namespace {

struct Fx {
  sim::Engine eng;
  host::MachineConfig mc = host::decstation_5000_200();
  mem::PhysicalMemory pm{1 << 24};
  mem::FrameAllocator frames{1 << 24, true, 2};
  tc::TurboChannel bus{eng};
  host::HostCpu cpu{eng, mc, bus};
  FbufPool pool{eng, mc, cpu, frames};
};

TEST(Fbuf, FirstAllocationInstallsPath) {
  Fx f;
  const int p = f.pool.create_path({0, 1, 2});
  auto [b, t] = f.pool.alloc(0, p);
  EXPECT_FALSE(b.cached);  // install happens for future allocations
  EXPECT_GT(t, 0u);  // installation took time
  auto [b2, t2] = f.pool.alloc(t, p);
  EXPECT_TRUE(b2.cached);
}

TEST(Fbuf, CachedTransferIsOrderOfMagnitudeCheaper) {
  Fx f;
  const int p = f.pool.create_path({0, 1});
  auto [uncached, t0] = f.pool.alloc(0, p);
  auto [cached, t1] = f.pool.alloc(t0, p);
  const sim::Tick c0 = f.pool.transfer(t1, uncached) - t1;
  const sim::Tick base = f.cpu.resource().free_at();
  const sim::Tick c1 = f.pool.transfer(base, cached) - base;
  EXPECT_GE(c0, 10 * c1) << "paper: order of magnitude difference";
}

TEST(Fbuf, LruEvictsOldestPath) {
  Fx f;
  std::vector<int> paths;
  for (int i = 0; i < 18; ++i) paths.push_back(f.pool.create_path({0, 1}));
  sim::Tick t = 0;
  for (const int p : paths) {
    auto [b, t2] = f.pool.alloc(t, p);
    t = t2;
  }
  // 18 installs into a 16-entry cache: the first two are evicted. A probe
  // of an uncached path installs it, so the cached one goes first.
  EXPECT_EQ(f.pool.evictions(), 2u);
  EXPECT_TRUE(f.pool.alloc(t, paths[17]).first.cached);
  EXPECT_FALSE(f.pool.alloc(t, paths[0]).first.cached);
  EXPECT_FALSE(f.pool.alloc(t, paths[1]).first.cached);
}

TEST(Fbuf, MruTouchPreventsEviction) {
  Fx f;
  std::vector<int> paths;
  for (int i = 0; i < 16; ++i) paths.push_back(f.pool.create_path({0, 1}));
  sim::Tick t = 0;
  for (const int p : paths) t = f.pool.alloc(t, p).second;
  // Touch path 0 so it is MRU, then install a 17th.
  t = f.pool.alloc(t, paths[0]).second;
  const int extra = f.pool.create_path({0, 1});
  t = f.pool.alloc(t, extra).second;
  // The cached path first: probing the LRU victim installs it again.
  EXPECT_TRUE(f.pool.alloc(t, paths[0]).first.cached);
  EXPECT_FALSE(f.pool.alloc(t, paths[1]).first.cached);
}

TEST(Fbuf, FreeReturnsToTheRightPool) {
  Fx f;
  const int p = f.pool.create_path({0, 1});
  sim::Tick t = f.pool.alloc(0, p).second;  // install
  // Drain the cached pool.
  std::vector<Fbuf> held;
  for (std::size_t i = 0; i < FbufPool::kBufsPerPath; ++i) {
    auto [b, t2] = f.pool.alloc(t, p);
    t = t2;
    EXPECT_TRUE(b.cached);
    held.push_back(b);
  }
  auto [spill, t3] = f.pool.alloc(t, p);
  EXPECT_FALSE(spill.cached) << "pool exhausted -> uncached";
  f.pool.free(t3, held[0]);
  auto [back, t4] = f.pool.alloc(t3, p);
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.pa, held[0].pa);
}

TEST(Fbuf, DeliverChargesPerHop) {
  Fx f;
  const int p = f.pool.create_path({0, 1, 2, 3});
  sim::Tick t = f.pool.alloc(0, p).second;
  auto [b, t1] = f.pool.alloc(t, p);
  const sim::Tick one = f.pool.transfer(t1, b) - t1;
  const sim::Tick base = f.cpu.resource().free_at();
  const sim::Tick three = f.pool.deliver(base, b, 3) - base;
  EXPECT_EQ(three, 3 * one);
}

}  // namespace
}  // namespace osiris::fbuf
