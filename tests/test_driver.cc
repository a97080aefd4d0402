// Driver-level tests: wiring, eager/lazy invalidation, recycling.
#include <gtest/gtest.h>

#include "osiris/node.h"

namespace osiris {
namespace {

struct Loop {
  sim::Engine eng;
  std::unique_ptr<Node> node;
  explicit Loop(NodeConfig cfg = make_5000_200_config()) {
    node = std::make_unique<Node>(eng, cfg);
    node->out.set_sink(
        [this](int lane, const atm::Cell& c) { node->rxp.on_cell(lane, c); });
  }
};

TEST(Driver, PagesWiredDuringDmaUnwiredAfter) {
  Loop f;
  Node& n = *f.node;
  n.map_kernel_vci(300);
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
  const mem::VirtAddr va = n.kernel_space.alloc(10000, 50);
  const auto sc = n.kernel_space.scatter(va, 10000);
  n.driver.send(0, 300, sc);
  EXPECT_GT(n.driver.wiring().wired_frames(), 0u);  // wired at send time
  f.eng.run();
  // Reap happens on the next send.
  n.driver.send(f.eng.now(), 300, sc);
  f.eng.run();
  n.driver.send(f.eng.now(), 300, sc);
  f.eng.run();
  EXPECT_LE(n.driver.wiring().wired_frames(), 3u);
}

TEST(Driver, SlowWiringCostsMore) {
  // §2.4: Mach's standard wiring vs the low-level fast path.
  auto run = [](mem::WiringMode mode) {
    NodeConfig cfg = make_5000_200_config();
    cfg.driver.wiring = mode;
    Loop f(cfg);
    Node& n = *f.node;
    n.map_kernel_vci(301);
    n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
    const mem::VirtAddr va = n.kernel_space.alloc(16384);
    const auto sc = n.kernel_space.scatter(va, 16384);
    const sim::Tick done = n.driver.send(0, 301, sc);
    return done;
  };
  EXPECT_GT(run(mem::WiringMode::kMachStandard),
            run(mem::WiringMode::kFastPath) + sim::us(100));
}

TEST(Driver, EagerInvalidationActuallyInvalidates) {
  NodeConfig cfg = make_5000_200_config();
  cfg.driver.eager_invalidate = true;
  Loop f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(302);
  bool saw = false;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    // After eager invalidation, a cached read returns fresh memory.
    std::vector<std::uint8_t> cached(pdu.pdu_len);
    mem::AccessCost cost;
    pdu.read_cached(n.cache, 0, cached, cost);
    std::vector<std::uint8_t> raw(pdu.pdu_len);
    pdu.read_raw(n.pm, 0, raw);
    EXPECT_EQ(cached, raw);
    saw = true;
    return at;
  });
  std::vector<std::uint8_t> pdu_bytes(3000, 6);
  n.rxp.start_generator_multi(302, {pdu_bytes}, 2, 0);
  f.eng.run();
  EXPECT_TRUE(saw);
}

TEST(Driver, LazyModeCanServeStaleBytesUntilRecovered) {
  // The §2.3 mechanism end-to-end at driver level: prime the cache with a
  // buffer's old contents, let DMA overwrite it, observe the stale read,
  // then recover_stale() and observe fresh data.
  NodeConfig cfg = make_5000_200_config();
  cfg.driver.rx_buffers = 1;  // reuse the same buffer every PDU
  Loop f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(303);

  int round = 0;
  bool found_stale = false;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    std::vector<std::uint8_t> cached(pdu.pdu_len);
    mem::AccessCost cost;
    pdu.read_cached(n.cache, 0, cached, cost);  // primes the cache
    std::vector<std::uint8_t> raw(pdu.pdu_len);
    pdu.read_raw(n.pm, 0, raw);
    if (cached != raw) {
      found_stale = true;
      n.driver.recover_stale(at, pdu);
      std::vector<std::uint8_t> again(pdu.pdu_len);
      mem::AccessCost c2;
      pdu.read_cached(n.cache, 0, again, c2);
      EXPECT_EQ(again, raw) << "recovery must reveal fresh memory";
    }
    ++round;
    return at;
  });

  // Distinct contents per PDU so reuse of the buffer makes cached bytes
  // visibly stale.
  for (int i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> pdu_bytes(3000, static_cast<std::uint8_t>(0x10 + i));
    n.rxp.start_generator_multi(303, {pdu_bytes}, 1, 0);
    f.eng.run();
  }
  EXPECT_EQ(round, 4);
  EXPECT_TRUE(found_stale) << "non-coherent cache must go stale on reuse";
}

TEST(Driver, RecycledBuffersAreReused) {
  NodeConfig cfg = make_3000_600_config();
  cfg.driver.rx_buffers = 3;
  Loop f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(304);
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> pdu_bytes(8000, 7);
  n.rxp.start_generator_multi(304, {pdu_bytes}, 40, 0);
  f.eng.run();
  EXPECT_EQ(n.driver.pdus_received(), 40u) << "3 buffers suffice when recycled";
}

}  // namespace
}  // namespace osiris
