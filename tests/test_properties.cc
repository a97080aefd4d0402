// Property-style parameterized sweeps over the low-level invariants:
// SAR round-trips across size classes, checksum composition, cache
// configurations, queue capacities, and address-space scatter coverage.
#include <gtest/gtest.h>

#include <numeric>

#include "atm/checksum.h"
#include "atm/sar.h"
#include "dpram/queue.h"
#include "mem/cache.h"
#include "mem/paging.h"
#include "sim/rng.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> rnd_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// ------------------------------------------------------------------ SAR

class SarSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SarSweep, SegmentAssembleIdentity) {
  const std::uint32_t n = GetParam();
  const auto pdu = rnd_bytes(n, 1000 + n);
  const auto cells = atm::segment(pdu, 3, static_cast<std::uint16_t>(n));
  EXPECT_EQ(cells.size(), atm::cells_for(n));
  atm::PduAssembler a;
  for (const auto& c : cells) {
    ASSERT_TRUE(a.add(c));
  }
  ASSERT_TRUE(a.complete());
  const auto out = a.finish();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, pdu);
}

TEST_P(SarSweep, ReverseOrderAssembly) {
  const std::uint32_t n = GetParam();
  const auto pdu = rnd_bytes(n, 2000 + n);
  auto cells = atm::segment(pdu, 3, 9);
  std::reverse(cells.begin(), cells.end());
  atm::PduAssembler a;
  for (const auto& c : cells) ASSERT_TRUE(a.add(c));
  EXPECT_EQ(*a.finish(), pdu);
}

TEST_P(SarSweep, FlagInvariants) {
  const std::uint32_t n = GetParam();
  const auto cells = atm::segment(rnd_bytes(n, 3000 + n), 3, 9);
  int boms = 0, lasts = 0, lane_eoms = 0;
  for (const auto& c : cells) {
    boms += c.bom() ? 1 : 0;
    lasts += c.last_cell() ? 1 : 0;
    lane_eoms += c.lane_eom() ? 1 : 0;
  }
  EXPECT_EQ(boms, 1);
  EXPECT_EQ(lasts, 1);
  // Exactly one lane-EOM per lane that carries cells.
  EXPECT_EQ(lane_eoms,
            static_cast<int>(std::min<std::size_t>(cells.size(), atm::kLanes)));
  EXPECT_TRUE(cells.back().last_cell());
  EXPECT_TRUE(cells.front().bom());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SarSweep,
    ::testing::Values(0u, 1u, 35u, 36u, 37u, 43u, 44u, 79u, 80u, 81u, 87u, 88u,
                      89u, 131u, 132u, 175u, 176u, 1000u, 4095u, 4096u, 4097u,
                      16384u, 16392u, 65536u));

// ------------------------------------------------------------- checksums

class ChecksumChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChecksumChunking, CrcIncrementalEqualsOneShot) {
  const auto data = rnd_bytes(5000, 77);
  const std::size_t chunk = GetParam();
  atm::Crc32 inc;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    inc.update({data.data() + off, std::min(chunk, data.size() - off)});
  }
  EXPECT_EQ(inc.value(), atm::Crc32::of(data));
}

TEST_P(ChecksumChunking, InternetIncrementalEqualsOneShot) {
  const auto data = rnd_bytes(5001, 78);  // odd length
  const std::size_t chunk = GetParam();
  atm::InternetChecksum inc;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    inc.update({data.data() + off, std::min(chunk, data.size() - off)});
  }
  EXPECT_EQ(inc.value(), atm::InternetChecksum::of(data));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChecksumChunking,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 44u, 100u,
                                           1024u, 4999u));

TEST(ChecksumProperties, SingleBitFlipAlwaysDetectedByCrc) {
  const auto data = rnd_bytes(512, 5);
  const std::uint32_t good = atm::Crc32::of(data);
  sim::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    auto bad = data;
    bad[rng.below(bad.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_NE(atm::Crc32::of(bad), good);
  }
}

TEST(ChecksumProperties, SingleBitFlipAlwaysDetectedByInternetChecksum) {
  // One flip always changes the one's-complement sum (it is two cancelling
  // flips that can fool it).
  const auto data = rnd_bytes(512, 7);
  const std::uint16_t good = atm::InternetChecksum::of(data);
  sim::Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    auto bad = data;
    bad[rng.below(bad.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_NE(atm::InternetChecksum::of(bad), good);
  }
}

// ----------------------------------------------------------------- cache

struct CacheCase {
  std::uint32_t size;
  std::uint32_t line;
  mem::DmaCoherence coh;
};

void PrintTo(const CacheCase& c, std::ostream* os) {
  *os << c.size / 1024 << "KiB_line" << c.line
      << (c.coh == mem::DmaCoherence::kUpdate ? "_update" : "_noncoherent");
}

class CacheSweep : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheSweep, RandomOpsMatchReferenceAfterInvalidate) {
  // Against a reference flat memory: after invalidating everything the
  // cache must agree with memory, whatever mix of CPU/DMA ops ran.
  const auto [size, line, coh] = GetParam();
  mem::PhysicalMemory pm(1 << 18);
  mem::DataCache dc(pm, {size, line, coh});
  sim::Rng rng(size + line);
  std::vector<std::uint8_t> buf(64);
  for (int op = 0; op < 2000; ++op) {
    const auto addr = static_cast<mem::PhysAddr>(rng.below((1 << 18) - 64));
    const auto n = 1 + rng.below(64);
    auto data = rnd_bytes(n, op);
    switch (rng.below(3)) {
      case 0:
        dc.cpu_write(addr, {data.data(), n});
        break;
      case 1:
        dc.dma_write(addr, {data.data(), n});
        break;
      default:
        dc.cpu_read(addr, {buf.data(), n});
        break;
    }
  }
  dc.invalidate_all();
  for (int probe = 0; probe < 200; ++probe) {
    const auto addr = static_cast<mem::PhysAddr>(rng.below((1 << 18) - 64));
    std::vector<std::uint8_t> via_cache(32), truth(32);
    dc.cpu_read(addr, via_cache);
    pm.read(addr, truth);
    ASSERT_EQ(via_cache, truth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheSweep,
    ::testing::Values(CacheCase{1024, 16, mem::DmaCoherence::kNonCoherent},
                      CacheCase{1024, 16, mem::DmaCoherence::kUpdate},
                      CacheCase{4096, 32, mem::DmaCoherence::kNonCoherent},
                      CacheCase{4096, 32, mem::DmaCoherence::kUpdate},
                      CacheCase{65536, 16, mem::DmaCoherence::kNonCoherent},
                      CacheCase{65536, 64, mem::DmaCoherence::kUpdate}));

// Update-coherent configurations only: with DMA updating cached lines, no
// line can go stale.
class UpdateCoherentCacheSweep : public ::testing::TestWithParam<CacheCase> {};

TEST_P(UpdateCoherentCacheSweep, NeverStale) {
  const auto [size, line, coh] = GetParam();
  mem::PhysicalMemory pm(1 << 16);
  mem::DataCache dc(pm, {size, line, coh});
  sim::Rng rng(99);
  std::vector<std::uint8_t> buf(32);
  for (int op = 0; op < 1000; ++op) {
    const auto addr = static_cast<mem::PhysAddr>(rng.below((1 << 16) - 32));
    auto data = rnd_bytes(16, op);
    if (rng.chance(0.5)) {
      dc.dma_write(addr, {data.data(), 16});
    } else {
      dc.cpu_read(addr, {buf.data(), 16});
    }
    ASSERT_FALSE(dc.is_stale(addr, 16));
  }
  EXPECT_EQ(dc.stale_reads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, UpdateCoherentCacheSweep,
    ::testing::Values(CacheCase{1024, 16, mem::DmaCoherence::kUpdate},
                      CacheCase{4096, 32, mem::DmaCoherence::kUpdate},
                      CacheCase{65536, 64, mem::DmaCoherence::kUpdate}));

// ---------------------------------------------------------------- queues

class QueueSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QueueSweep, RandomizedFifoConsistency) {
  const std::uint32_t cap = GetParam();
  dpram::DualPortRam ram;
  const dpram::QueueLayout lay{0, cap};
  dpram::QueueWriter w(ram, lay, dpram::Side::kHost);
  dpram::QueueReader r(ram, lay, dpram::Side::kBoard);
  sim::Rng rng(cap);
  std::uint32_t next_push = 0, next_pop = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.chance(0.55)) {
      if (!w.full()) {
        ASSERT_TRUE(w.push({next_push, next_push * 3, 0, 0, next_push}).ok);
        ++next_push;
      }
    } else {
      if (const auto d = r.pop()) {
        ASSERT_EQ(d->addr, next_pop);
        ASSERT_EQ(d->len, next_pop * 3);
        ASSERT_EQ(d->user, next_pop);
        ++next_pop;
      }
    }
    ASSERT_LE(next_push - next_pop, cap - 1);
  }
  EXPECT_GE(next_pop, 1000u);
}

TEST_P(QueueSweep, PeekNeverConsumes) {
  const std::uint32_t cap = GetParam();
  dpram::DualPortRam ram;
  const dpram::QueueLayout lay{0, cap};
  dpram::QueueWriter w(ram, lay, dpram::Side::kHost);
  dpram::QueueReader r(ram, lay, dpram::Side::kBoard);
  for (std::uint32_t i = 0; i < cap - 1; ++i) w.push({i, 0, 0, 0, 0});
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t k = 0; k < cap - 1; ++k) {
      ASSERT_EQ(r.peek_at(k)->addr, k);
    }
  }
  EXPECT_EQ(r.size(), cap - 1);
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueSweep,
                         ::testing::Values(2u, 3u, 4u, 8u, 64u, 255u));

// ----------------------------------------------------------- addressing

class ScatterSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScatterSweep, ScatterCoversExactlyOnceInOrder) {
  const std::uint32_t len = GetParam();
  mem::PhysicalMemory pm(1 << 22);
  mem::FrameAllocator fa(1 << 22, true, len);
  mem::AddressSpace as(pm, fa, "p");
  const mem::VirtAddr va = as.alloc(len, len % mem::kPageSize);
  const auto sc = as.scatter(va, len);
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < sc.size(); ++i) {
    EXPECT_GT(sc[i].len, 0u);
    if (i > 0) {
      EXPECT_NE(sc[i - 1].addr + sc[i - 1].len, sc[i].addr)
          << "adjacent runs must have been merged";
    }
    total += sc[i].len;
  }
  EXPECT_EQ(total, len);
  // Byte-level identity through the scatter list.
  const auto data = rnd_bytes(len, len);
  as.write(va, data);
  std::vector<std::uint8_t> out;
  for (const auto& pb : sc) {
    const auto v = pm.view(pb.addr, pb.len);
    out.insert(out.end(), v.begin(), v.end());
  }
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ScatterSweep,
                         ::testing::Values(1u, 100u, 4096u, 4097u, 10000u,
                                           65536u, 100001u));

}  // namespace
}  // namespace osiris
