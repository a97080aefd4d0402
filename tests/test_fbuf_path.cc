// End-to-end fbuf data paths (§3.1): early demultiplexing steers a VCI's
// incoming PDUs into that path's preallocated, pre-mapped buffer pool.
#include <gtest/gtest.h>

#include "fbuf/fbuf.h"
#include "osiris/node.h"

namespace osiris {
namespace {

struct Fx {
  sim::Engine eng;
  std::unique_ptr<Node> node;
  std::unique_ptr<fbuf::FbufPool> pool;

  Fx() {
    NodeConfig cfg = make_3000_600_config();
    node = std::make_unique<Node>(eng, cfg);
    node->out.set_sink(
        [this](int lane, const atm::Cell& c) { node->rxp.on_cell(lane, c); });
    pool = std::make_unique<fbuf::FbufPool>(eng, node->cfg.machine, node->cpu,
                                            node->frames);
  }
};

TEST(FbufPath, IncomingPdusLandInThePathsPool) {
  Fx f;
  Node& n = *f.node;
  const int path = n.open_fbuf_path(*f.pool, 600, {0, 1, 2});
  const auto pool_bufs = f.pool->path_pool(path);
  ASSERT_FALSE(pool_bufs.empty());

  std::vector<std::uint32_t> seen_addrs;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    for (const auto& b : pdu.bufs) seen_addrs.push_back(b.pa);
    return at;
  });
  std::vector<std::uint8_t> pdu_bytes(6000, 0x21);
  n.rxp.start_generator_multi(600, {pdu_bytes}, 3, 0);
  f.eng.run();

  ASSERT_FALSE(seen_addrs.empty());
  for (const std::uint32_t pa : seen_addrs) {
    const bool in_pool =
        std::any_of(pool_bufs.begin(), pool_bufs.end(), [pa](const auto& b) {
          return pa >= b.addr && pa < b.addr + b.len;
        });
    EXPECT_TRUE(in_pool) << "buffer " << pa << " not from the path pool";
  }
}

TEST(FbufPath, RecyclingKeepsThePoolAlive) {
  // Far more PDUs than the pool holds: buffers must cycle back through
  // the per-path free queue.
  Fx f;
  Node& n = *f.node;
  n.open_fbuf_path(*f.pool, 601, {0, 1});
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> pdu_bytes(3000, 0x22);
  n.rxp.start_generator_multi(601, {pdu_bytes}, 200, 0);
  f.eng.run();
  EXPECT_EQ(n.driver.pdus_received(), 200u);
  EXPECT_EQ(n.rxp.pdus_dropped_nobuf(), 0u);
}

TEST(FbufPath, ExhaustedPathFallsBackToKernelPool) {
  // Wedge the consumer so path buffers stay out; the board falls back to
  // the kernel (uncached) pool rather than dropping (§3.1: "if not, it
  // uses a buffer from the queue of uncached fbufs").
  Fx f;
  Node& n = *f.node;
  const int path = n.open_fbuf_path(*f.pool, 602, {0, 1});
  const auto pool_bufs = f.pool->path_pool(path);

  std::uint64_t from_pool = 0, from_kernel = 0;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    for (const auto& b : pdu.bufs) {
      const bool in_pool = std::any_of(
          pool_bufs.begin(), pool_bufs.end(), [&](const auto& pb) {
            return b.pa >= pb.addr && b.pa < pb.addr + pb.len;
          });
      (in_pool ? from_pool : from_kernel)++;
    }
    return at + sim::ms(100);  // wedge: buffers held a long time
  });
  std::vector<std::uint8_t> pdu_bytes(16000, 0x23);
  n.rxp.start_generator_multi(602, {pdu_bytes}, 40, 0);
  f.eng.run();
  EXPECT_GT(from_pool, 0u);
  EXPECT_GT(from_kernel, 0u) << "fallback to the kernel pool must kick in";
}

TEST(FbufPath, MultiplePathsAreIsolated) {
  Fx f;
  Node& n = *f.node;
  const int p1 = n.open_fbuf_path(*f.pool, 603, {0, 1});
  const int p2 = n.open_fbuf_path(*f.pool, 604, {0, 2});
  const auto bufs1 = f.pool->path_pool(p1);
  const auto bufs2 = f.pool->path_pool(p2);

  std::map<std::uint16_t, std::vector<std::uint32_t>> by_vci;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    for (const auto& b : pdu.bufs) by_vci[pdu.vci].push_back(b.pa);
    return at;
  });
  std::vector<std::uint8_t> pdu_bytes(2000, 0x24);
  n.rxp.start_generator_multi(603, {pdu_bytes}, 5, 0);
  f.eng.run();
  n.rxp.start_generator_multi(604, {pdu_bytes}, 5, 0);
  f.eng.run();

  auto all_in = [](const std::vector<std::uint32_t>& addrs,
                   const std::vector<mem::PhysBuffer>& pool) {
    return std::all_of(addrs.begin(), addrs.end(), [&](std::uint32_t pa) {
      return std::any_of(pool.begin(), pool.end(), [&](const auto& b) {
        return pa >= b.addr && pa < b.addr + b.len;
      });
    });
  };
  EXPECT_TRUE(all_in(by_vci[603], bufs1));
  EXPECT_TRUE(all_in(by_vci[604], bufs2));
}

TEST(FbufPath, OutOfDpramPagesThrows) {
  Fx f;
  Node& n = *f.node;
  for (std::uint16_t i = 0; i < 8; ++i) {
    n.open_fbuf_path(*f.pool, static_cast<std::uint16_t>(610 + i), {0, 1});
  }
  EXPECT_THROW(n.open_fbuf_path(*f.pool, 630, {0, 1}), std::runtime_error);
}

}  // namespace
}  // namespace osiris
