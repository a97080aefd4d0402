// Unit tests for physical memory, paging, the cache model, and wiring.
#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>

#include "mem/cache.h"
#include "mem/paging.h"
#include "mem/phys.h"
#include "mem/wiring.h"

namespace osiris::mem {
namespace {

TEST(PhysicalMemory, ReadWriteRoundTrip) {
  PhysicalMemory pm(1 << 16);
  std::vector<std::uint8_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  pm.write(1000, data);
  std::vector<std::uint8_t> out(100);
  pm.read(1000, out);
  EXPECT_EQ(data, out);
}

TEST(PhysicalMemory, BoundsChecked) {
  PhysicalMemory pm(4096);
  std::vector<std::uint8_t> buf(10);
  EXPECT_THROW(pm.read(4090, buf), std::out_of_range);
  EXPECT_THROW(pm.write(4096, buf), std::out_of_range);
  EXPECT_NO_THROW(pm.read(4086, buf));
}

static_assert(!std::is_copy_constructible_v<PhysicalMemory>);
static_assert(std::is_nothrow_move_constructible_v<PhysicalMemory>);

TEST(PhysicalMemory, FreshMemoryReadsZero) {
  // Backed lazily: untouched pages must still read as zeroed memory.
  constexpr std::size_t kBytes = 64u << 20;
  PhysicalMemory pm(kBytes);
  EXPECT_EQ(pm.size(), kBytes);
  EXPECT_EQ(pm.byte(0), 0);
  EXPECT_EQ(pm.byte(kBytes / 2), 0);
  EXPECT_EQ(pm.byte(kBytes - 1), 0);
}

TEST(PhysicalMemory, MovedFromHoldsNothing) {
  PhysicalMemory a(1 << 16);
  a.set_byte(7, 42);
  PhysicalMemory b(std::move(a));
  EXPECT_EQ(b.byte(7), 42);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_THROW((void)a.byte(0), std::out_of_range);
}

TEST(FrameAllocator, InterleavedFramesAreDiscontiguous) {
  // The §2.2 premise: virtually contiguous pages are generally not
  // physically contiguous.
  FrameAllocator fa(1 << 22, /*interleave=*/true, /*seed=*/7);
  int adjacent = 0;
  PhysAddr prev = fa.alloc();
  for (int i = 0; i < 100; ++i) {
    const PhysAddr cur = fa.alloc();
    if (cur == prev + kPageSize) ++adjacent;
    prev = cur;
  }
  EXPECT_LT(adjacent, 10);
}

TEST(FrameAllocator, SequentialModeIsContiguous) {
  FrameAllocator fa(1 << 20, /*interleave=*/false);
  PhysAddr prev = fa.alloc();
  for (int i = 0; i < 10; ++i) {
    const PhysAddr cur = fa.alloc();
    EXPECT_EQ(cur, prev + kPageSize);
    prev = cur;
  }
}

TEST(FrameAllocator, ContiguousAllocationBestEffort) {
  FrameAllocator fa(1 << 20, /*interleave=*/true, 3);
  const auto base = fa.alloc_contiguous(4);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base % kPageSize, 0u);
  // The run must actually be reserved: allocating everything else never
  // returns those frames.
  const std::size_t rest = fa.free_frames();
  for (std::size_t i = 0; i < rest; ++i) {
    const PhysAddr f = fa.alloc();
    EXPECT_TRUE(f < *base || f >= *base + 4 * kPageSize);
  }
}

TEST(FrameAllocator, FreeAndReuse) {
  FrameAllocator fa(16 * kPageSize, false);
  std::vector<PhysAddr> all;
  for (int i = 0; i < 16; ++i) all.push_back(fa.alloc());
  EXPECT_THROW(fa.alloc(), std::runtime_error);
  fa.free(all[5]);
  EXPECT_EQ(fa.alloc(), all[5]);
  EXPECT_THROW(fa.free(123456u * 0 + all[0] + kPageSize * 100), std::logic_error);
}

TEST(FrameAllocator, IssueOrderPinned) {
  // Frame addresses feed DMA splits and cache indices, so the order frames
  // come out in is part of every fingerprint. The hash below was recorded
  // with the original deque free list.
  FrameAllocator fa(64u << 20, /*interleave=*/true, /*seed=*/1);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  const auto note = [&](PhysAddr a) {
    mix(a);
    mix(fa.free_frames());
  };
  for (int i = 0; i < 64; ++i) {
    const auto base = fa.alloc_contiguous(4);
    ASSERT_TRUE(base.has_value());
    note(*base);
  }
  std::vector<PhysAddr> singles;
  for (int i = 0; i < 200; ++i) {
    singles.push_back(fa.alloc());
    note(singles.back());
  }
  for (std::size_t i = 0; i < singles.size(); i += 3) {
    fa.free(singles[i]);
    mix(fa.free_frames());
  }
  for (int i = 0; i < 100; ++i) note(fa.alloc());
  EXPECT_EQ(fa.free_frames(), 16384u - 256 - 200 + 67 - 100);
  EXPECT_EQ(h, 0xb57f8db0d69596b5ULL);
}

TEST(AddressSpace, TranslateAndScatter) {
  PhysicalMemory pm(1 << 22);
  FrameAllocator fa(1 << 22, true, 11);
  AddressSpace as(pm, fa, "t");
  const VirtAddr va = as.alloc(3 * kPageSize);
  // Contiguous virtually; scatter yields >= 1 physically contiguous runs
  // covering all bytes.
  const auto sc = as.scatter(va, 3 * kPageSize);
  std::uint32_t total = 0;
  for (const auto& pb : sc) total += pb.len;
  EXPECT_EQ(total, 3 * kPageSize);
  EXPECT_GE(sc.size(), 1u);
  EXPECT_LE(sc.size(), 3u);
}

TEST(AddressSpace, UnalignedBufferScatterMatchesPaperFigure1) {
  // A data portion not aligned with page boundaries occupies
  // ceil((n-1)/page)+1 pages (paper §2.2).
  PhysicalMemory pm(1 << 22);
  FrameAllocator fa(1 << 22, true, 13);
  AddressSpace as(pm, fa, "t");
  const std::uint32_t off = 100;
  const std::uint32_t len = 2 * kPageSize;  // 2 pages of data, unaligned
  const VirtAddr va = as.alloc(len, off);
  const auto sc = as.scatter(va, len);
  // Spans 3 pages; with an interleaved allocator that is almost surely 3
  // physical buffers.
  std::uint32_t total = 0;
  for (const auto& pb : sc) total += pb.len;
  EXPECT_EQ(total, len);
  EXPECT_EQ(sc.size(), 3u);
}

TEST(AddressSpace, WriteReadThroughPageTable) {
  PhysicalMemory pm(1 << 22);
  FrameAllocator fa(1 << 22, true, 17);
  AddressSpace as(pm, fa, "t");
  const VirtAddr va = as.alloc(10000, 123);
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  as.write(va, data);
  std::vector<std::uint8_t> out(10000);
  as.read(va, out);
  EXPECT_EQ(data, out);
}

TEST(AddressSpace, UnmappedTranslateThrows) {
  PhysicalMemory pm(1 << 20);
  FrameAllocator fa(1 << 20);
  AddressSpace as(pm, fa, "t");
  EXPECT_THROW((void)as.translate(0x100), std::out_of_range);
  EXPECT_FALSE(as.mapped(0x100));
}

TEST(AddressSpace, MapFrameSharesPhysicalPage) {
  PhysicalMemory pm(1 << 20);
  FrameAllocator fa(1 << 20);
  AddressSpace a(pm, fa, "a");
  AddressSpace b(pm, fa, "b");
  const PhysAddr frame = fa.alloc();
  const VirtAddr va = a.map_frame(frame);
  const VirtAddr vb = b.map_frame(frame);
  std::vector<std::uint8_t> data{1, 2, 3, 4};
  a.write(va, data);
  std::vector<std::uint8_t> out(4);
  b.read(vb, out);
  EXPECT_EQ(out, data);
  fa.free(frame);
}

TEST(AddressSpace, PreferContiguousFallsBack) {
  FrameAllocator fa(8 * kPageSize, false);
  PhysicalMemory pm(8 * kPageSize);
  AddressSpace as(pm, fa, "t");
  bool contig = false;
  as.alloc_prefer_contiguous(3 * kPageSize, &contig);
  EXPECT_TRUE(contig);
  // Exhaust so no run of 4 remains, then ask again.
  while (fa.free_frames() > 3) fa.alloc();
  bool contig2 = true;
  as.alloc_prefer_contiguous(3 * kPageSize, &contig2);
  EXPECT_TRUE(contig2);  // 3 sequential frames remain in order
}

// ---------------------------------------------------------------- cache

CacheConfig small_cache(DmaCoherence c) { return {1024, 16, c}; }

TEST(DataCache, ReadMissFillsLine) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> data{9, 8, 7, 6};
  pm.write(64, data);
  std::vector<std::uint8_t> out(4);
  auto c1 = dc.cpu_read(64, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(c1.misses, 1u);
  EXPECT_EQ(c1.mem_words, 4u);  // 16-byte line fill
  auto c2 = dc.cpu_read(64, out);
  EXPECT_EQ(c2.hits, 1u);
  EXPECT_EQ(c2.misses, 0u);
}

TEST(DataCache, NonCoherentDmaLeavesStaleData) {
  // The paper's §2.3 scenario: cached bytes survive a DMA overwrite.
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> v1{1, 1, 1, 1}, v2{2, 2, 2, 2};
  pm.write(128, v1);
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(128, out);  // cache the line
  dc.dma_write(128, v2);  // memory now v2, cache still v1
  EXPECT_TRUE(dc.is_stale(128, 4));
  dc.cpu_read(128, out);
  EXPECT_EQ(out, v1);  // stale!
  EXPECT_GE(dc.stale_reads(), 1u);
  EXPECT_GE(dc.dma_stale_lines(), 1u);
  // Invalidation recovers.
  const auto words = dc.invalidate(128, 4);
  EXPECT_EQ(words, 1u);
  dc.cpu_read(128, out);
  EXPECT_EQ(out, v2);
}

TEST(DataCache, UpdateCoherenceRefreshesCache) {
  // DEC 3000/600 behaviour: DMA writes update the cache.
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kUpdate));
  std::vector<std::uint8_t> v1{1, 1, 1, 1}, v2{2, 2, 2, 2};
  pm.write(128, v1);
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(128, out);
  dc.dma_write(128, v2);
  EXPECT_FALSE(dc.is_stale(128, 4));
  dc.cpu_read(128, out);
  EXPECT_EQ(out, v2);
  EXPECT_EQ(dc.stale_reads(), 0u);
}

TEST(DataCache, WriteThroughUpdatesMemoryAndHitLines) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(256, out);  // cache the line
  std::vector<std::uint8_t> v{5, 6, 7, 8};
  dc.cpu_write(256, v);
  EXPECT_EQ(pm.byte(256), 5);  // memory updated immediately
  dc.cpu_read(256, out);
  EXPECT_EQ(out, v);  // and the cached copy as well
  EXPECT_FALSE(dc.is_stale(256, 4));
}

TEST(DataCache, DirectMappedConflictEviction) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));  // 64 lines
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(0, out);
  auto c = dc.cpu_read(0 + 1024, out);  // same index, different tag
  EXPECT_EQ(c.misses, 1u);
  c = dc.cpu_read(0, out);  // evicted: miss again
  EXPECT_EQ(c.misses, 1u);
}

TEST(DataCache, InvalidateAllCostsNothingButCausesMisses) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> out(16);
  dc.cpu_read(0, out);
  dc.invalidate_all();
  auto c = dc.cpu_read(0, out);
  EXPECT_EQ(c.misses, 1u);
}

TEST(DataCache, ReadSpanningLines) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  pm.write(8, data);  // unaligned, spans 7 lines
  std::vector<std::uint8_t> out(100);
  auto c = dc.cpu_read(8, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(c.misses, 7u);
}

// --------------------------------------------------------------- wiring

TEST(PageWiring, WireUnwireCounts) {
  PageWiring w;
  w.wire(0x5000);
  w.wire(0x5100);  // same page
  EXPECT_TRUE(w.is_wired(0x5abc));
  EXPECT_EQ(w.wired_frames(), 1u);
  w.unwire(0x5000);
  EXPECT_TRUE(w.is_wired(0x5abc));  // still one wiring left
  w.unwire(0x5000);
  EXPECT_FALSE(w.is_wired(0x5abc));
  EXPECT_EQ(w.wire_ops(), 2u);
  EXPECT_EQ(w.unwire_ops(), 2u);
}

TEST(PageWiring, UnwireUnwiredThrows) {
  PageWiring w;
  EXPECT_THROW(w.unwire(0x1000), std::logic_error);
}

TEST(PageWiring, BufferSpanningPages) {
  PageWiring w;
  std::vector<PhysBuffer> bufs{{kPageSize - 100, 300}};  // spans 2 pages
  w.wire_buffers(bufs);
  EXPECT_TRUE(w.is_wired(0));
  EXPECT_TRUE(w.is_wired(kPageSize));
  EXPECT_EQ(w.wired_frames(), 2u);
  w.unwire_buffers(bufs);
  EXPECT_EQ(w.wired_frames(), 0u);
}

}  // namespace
}  // namespace osiris::mem
