#include "kernels.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "atm/checksum.h"
#include "atm/sar.h"
#include "dpram/dpram.h"
#include "dpram/queue.h"
#include "flow/table.h"
#include "ledger.h"
#include "mem/cache.h"
#include "mem/paging.h"
#include "mem/phys.h"
#include "osiris/node.h"
#include "proto/stack.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace perfbench {

namespace {

using namespace osiris;
using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;  // keeps kernel results observable

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over five ~20 ms repetitions of the wall ns per op, where one
/// call of `round` performs `ops_per_round` ops. One warm-up round first.
template <class F>
double ns_per_op(F&& round, double ops_per_round) {
  round();
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t rounds = 0;
    const auto t0 = Clock::now();
    double ns = 0;
    do {
      round();
      ++rounds;
      ns = elapsed_ns(t0);
    } while (ns < 20e6);
    samples.push_back(ns / (static_cast<double>(rounds) * ops_per_round));
  }
  return quantile(samples, 0.5);
}

/// Median wall ms of five constructions made by `build` (each result is
/// destroyed outside the timed interval).
template <class F>
double ctor_ms(F&& build) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    auto obj = build();
    samples.push_back(elapsed_ns(t0) / 1e6);
    g_sink = g_sink + reinterpret_cast<std::uintptr_t>(obj.get());
  }
  return quantile(samples, 0.5);
}

/// The PDUs the stack hands the board for the workload's messages: UDP and
/// IP headers added, fragmented at the default 16 KB MTU.
std::vector<std::vector<std::uint8_t>> pdus_of(const std::vector<std::uint32_t>& msgs) {
  const std::uint32_t mtu = proto::StackConfig{}.ip_mtu;
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::uint32_t m : msgs) {
    const std::uint32_t len =
        std::min(m + proto::kUdpHeader + proto::kIpHeader, mtu);
    std::vector<std::uint8_t> v(len);
    for (std::uint32_t i = 0; i < len; ++i) v[i] = static_cast<std::uint8_t>(i * 13 + 5);
    out.push_back(std::move(v));
  }
  return out;
}

struct FlowEntry {
  std::uint64_t value = 0;
};

}  // namespace

std::map<std::string, double> run_kernels(const KernelShape& shape) {
  std::map<std::string, double> out;
  const auto pdus = pdus_of(shape.msg_bytes);
  double total_kb = 0, total_cells = 0;
  for (const auto& p : pdus) {
    total_kb += static_cast<double>(p.size()) / 1024.0;
    total_cells += atm::cells_for(static_cast<std::uint32_t>(p.size()));
  }

  out["atm.crc32_ns_per_kb"] = ns_per_op(
      [&] {
        for (const auto& p : pdus) g_sink = g_sink + atm::Crc32::of(p);
      },
      total_kb);

  std::vector<atm::Cell> cells;
  out["atm.segment_ns_per_cell"] = ns_per_op(
      [&] {
        for (const auto& p : pdus) {
          atm::segment_into(p, 700, 1, cells);
          g_sink = g_sink + cells.back().payload[0];
        }
      },
      total_cells);

  std::vector<std::vector<atm::Cell>> trains;
  for (const auto& p : pdus) trains.push_back(atm::segment(p, 700, 1));
  out["atm.reassemble_ns_per_cell"] = ns_per_op(
      [&] {
        for (const auto& train : trains) {
          atm::PduAssembler a;
          for (const atm::Cell& c : train) a.add(c);
          const auto pdu = a.finish();
          g_sink = g_sink + (pdu ? pdu->size() : 0);
        }
      },
      total_cells);

  {
    mem::PhysicalMemory pm(4 * 1024 * 1024);
    mem::DataCache cache(pm, mem::CacheConfig{});
    mem::PhysAddr addr = 0;
    out["mem.dma_write_ns_per_kb"] = ns_per_op(
        [&] {
          for (const auto& p : pdus) {
            if (addr + p.size() > pm.size()) addr = 0;
            g_sink = g_sink + cache.dma_write(addr, p);
            addr += static_cast<mem::PhysAddr>(p.size());
          }
        },
        total_kb);
  }

  {
    flow::FlowTable<FlowEntry> table;
    std::vector<std::uint32_t> keys;
    std::uint64_t s = shape.seed;
    while (keys.size() < std::max<std::uint32_t>(shape.vcis, 1)) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto k = static_cast<std::uint32_t>(s >> 40);  // 24-bit VCI
      if (table.insert(k).second) keys.push_back(k);
    }
    constexpr std::size_t kLookups = 4096;
    out["flow.find_ns"] = ns_per_op(
        [&] {
          for (std::size_t i = 0; i < kLookups; ++i) {
            g_sink = g_sink + table.find(keys[(i * 7919) % keys.size()])->value;
          }
        },
        kLookups);
  }

  {
    // A busy server: `depth` intervals are booked ahead and each request
    // queues behind the last of them; time then advances one interval, so
    // one booking expires per request and the depth stays constant.
    constexpr sim::Duration kHold = 1000;
    constexpr int kOps = 1024;
    const std::uint32_t depth = std::max<std::uint32_t>(shape.calendar_depth, 1);
    sim::Engine eng;
    sim::Resource res(eng, "replay");
    for (std::uint32_t i = 0; i < depth; ++i) res.reserve_at(res.free_at(), kHold);
    out["sim.resource_reserve_ns"] = ns_per_op(
        [&] {
          for (int i = 0; i < kOps; ++i) {
            eng.advance_to(eng.now() + kHold);
            g_sink = g_sink + res.reserve_at(res.free_at(), kHold);
          }
        },
        kOps);
  }

  {
    dpram::DualPortRam ram;
    const dpram::QueueLayout lay = dpram::channel_layout(0).tx;
    dpram::QueueWriter w(ram, lay, dpram::Side::kHost);
    dpram::QueueReader r(ram, lay, dpram::Side::kBoard);
    constexpr int kPairs = 256;
    dpram::Descriptor d;
    d.len = 4096;
    d.vci = 700;
    out["dpram.queue_op_ns"] = ns_per_op(
        [&] {
          for (int i = 0; i < kPairs; ++i) {
            d.addr = static_cast<std::uint32_t>(i) * 4096;
            w.push(d);
            g_sink = g_sink + r.pop()->addr;
          }
        },
        kPairs);
  }

  const std::size_t mem_bytes = NodeConfig{}.mem_bytes;
  out["mem.phys_ctor_ms"] =
      ctor_ms([&] { return std::make_unique<mem::PhysicalMemory>(mem_bytes); });
  out["mem.frames_ctor_ms"] = ctor_ms([&] {
    return std::make_unique<mem::FrameAllocator>(mem_bytes, true, shape.seed);
  });
  {
    mem::PhysicalMemory pm(mem_bytes);
    out["mem.cache_ctor_ms"] = ctor_ms(
        [&] { return std::make_unique<mem::DataCache>(pm, mem::CacheConfig{}); });
  }
  return out;
}

}  // namespace perfbench
