// Flow-table tests: the one open-addressed hash table behind every keyed
// table (growth, tombstone reuse, history-determined iteration order,
// move-only values), and the board-level guarantees that ride on it —
// quarantine state surviving growth, unmapping a VCI mid-reassembly, and
// schedule determinism with 10^5 mapped VCIs.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "flow/table.h"
#include "osiris/node.h"

namespace osiris {
namespace {

struct Val {
  std::uint32_t payload = 0;
  std::uint32_t flags = 0;
};

// ------------------------------------------------------------ FlowTable

TEST(FlowTable, CollisionsFillBucketThenGrowthKeepsEveryEntry) {
  // The first insert makes 16 slots; 32 keys collide into probe runs and
  // force several doublings, and every entry must come through intact.
  flow::FlowTable<Val> t;
  for (std::uint64_t k = 1; k <= 32; ++k) {
    auto [v, fresh] = t.insert(k);
    ASSERT_TRUE(fresh) << k;
    v->payload = static_cast<std::uint32_t>(k * 100);
    if (k == 1) {
      EXPECT_EQ(t.capacity(), 16u);
    }
  }
  EXPECT_EQ(t.size(), 32u);
  EXPECT_GE(t.capacity(), 64u) << "at most half the slots hold live keys";
  for (std::uint64_t k = 1; k <= 32; ++k) {
    Val* v = t.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(v->payload, k * 100);
  }
  EXPECT_EQ(t.find(999), nullptr);
}

TEST(FlowTable, IncrementalRehashUnderLiveTraffic) {
  // Inserts force several rehashes while finds and erases interleave, so
  // lookups run over tables full of tombstones and just after growth.
  flow::FlowTable<Val> t;
  std::set<std::uint32_t> live;
  std::uint32_t next = 1;
  for (int round = 0; round < 2000; ++round) {
    const std::uint32_t k = next++;
    t.insert(k).first->payload = k;
    live.insert(k);
    if (round % 3 == 0 && live.size() > 10) {
      const std::uint32_t victim = *live.begin();
      EXPECT_TRUE(t.erase(victim));
      EXPECT_FALSE(t.erase(victim));
      live.erase(victim);
    }
    if (round % 97 == 0) {
      for (const std::uint32_t v : live) {
        Val* p = t.find(v);
        ASSERT_NE(p, nullptr) << "round " << round << " key " << v;
        EXPECT_EQ(p->payload, v);
      }
    }
  }
  EXPECT_EQ(t.size(), live.size());
  EXPECT_GE(t.capacity(), 2 * live.size());
}

TEST(FlowTable, EntryFlagsSurviveRehash) {
  // A move-only value (the board's VciState owns its CellRouter) set
  // before growth and tombstone churn must read back identically after
  // them; the board's quarantine bit relies on exactly this.
  struct Owned {
    std::uint32_t flags = 0;
    std::unique_ptr<int> router;
  };
  flow::FlowTable<Owned> t;
  Owned& first = *t.insert(7).first;
  first.flags = 0x2;  // "quarantined"
  first.router = std::make_unique<int>(77);
  const std::size_t cap = t.capacity();
  for (std::uint64_t k = 1000; k < 5000; ++k) {
    t.insert(k).first->router = std::make_unique<int>(static_cast<int>(k));
    if (k % 2 == 1) {
      EXPECT_TRUE(t.erase(k - 1));
    }
  }
  EXPECT_GT(t.capacity(), cap);
  EXPECT_EQ(t.size(), 2001u);
  Owned* v = t.find(7);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->flags, 0x2u);
  ASSERT_NE(v->router, nullptr);
  EXPECT_EQ(*v->router, 77);
  ASSERT_NE(t.find(4999), nullptr);
  EXPECT_EQ(*t.find(4999)->router, 4999);
  EXPECT_EQ(t.find(4998), nullptr);
}

TEST(FlowTable, ForEachWalksSlabOrderAndSupportsErase) {
  // Iteration order is a function of the operation history alone: two
  // tables fed the same inserts and erases walk their keys in the same
  // order — the determinism anchor for the pinned chaos fingerprints.
  const std::uint64_t keys[] = {900001, 3, 500, 123456, 42, 7, 65536, 11};
  flow::FlowTable<Val> a, b;
  for (flow::FlowTable<Val>* t : {&a, &b}) {
    for (const std::uint64_t k : keys) t->insert(k);
    t->erase(500);
    for (std::uint64_t k = 1; k <= 40; ++k) t->insert(k << 20);
  }
  std::vector<std::uint64_t> seen_a, seen_b;
  a.for_each([&](std::uint64_t k, Val&) { seen_a.push_back(k); });
  b.for_each([&](std::uint64_t k, Val&) { seen_b.push_back(k); });
  EXPECT_EQ(seen_a.size(), a.size());
  EXPECT_EQ(seen_a, seen_b);
  // Erasing the current key mid-iteration is allowed and skips nothing.
  std::size_t visited = 0;
  a.for_each([&](std::uint64_t k, Val&) {
    ++visited;
    if (k == 3 || k == 42 || k == (5u << 20)) a.erase(k);
  });
  EXPECT_EQ(visited, seen_a.size());
  EXPECT_EQ(a.size(), seen_a.size() - 3);
  EXPECT_EQ(a.find(42), nullptr);
  ASSERT_NE(a.find(123456), nullptr);
}

TEST(FlowTable, FreedSlotsAreReusedWithoutGrowth) {
  // Churn at a stable live count leaves tombstones; inserts reuse them,
  // and a same-size rehash clears the rest, so the table never grows.
  flow::FlowTable<Val> t;
  for (std::uint64_t k = 1; k <= 48; ++k) t.insert(k);
  const std::size_t cap = t.capacity();
  for (int round = 0; round < 500; ++round) {
    const auto k = static_cast<std::uint64_t>(1000 + round);
    t.insert(k);
    t.erase(k);
  }
  EXPECT_EQ(t.size(), 48u);
  EXPECT_EQ(t.capacity(), cap) << "churn at stable size must not grow";
  for (std::uint64_t k = 1; k <= 48; ++k) ASSERT_NE(t.find(k), nullptr) << k;
}

// The two tests below covered the second, per-PDU table; they now exercise
// the one table through the same operations.

TEST(OpenMap, EmplaceFindEraseAndTombstoneReuse) {
  flow::FlowTable<Val> m;
  auto [v, fresh] = m.insert(0x12345678ULL);
  ASSERT_TRUE(fresh);
  v->payload = 9;
  auto [v2, fresh2] = m.insert(0x12345678ULL);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(v2, v);
  EXPECT_EQ(v2->payload, 9u);
  EXPECT_TRUE(m.erase(0x12345678ULL));
  EXPECT_EQ(m.find(0x12345678ULL), nullptr);
  EXPECT_TRUE(m.empty());
  // Reinserting after erase reuses the tombstone and lands on a fresh
  // default-constructed value.
  auto [v3, fresh3] = m.insert(0x12345678ULL);
  ASSERT_TRUE(fresh3);
  EXPECT_EQ(v3, v);
  EXPECT_EQ(v3->payload, 0u);
  m.clear();
  EXPECT_EQ(m.find(0x12345678ULL), nullptr);
  EXPECT_EQ(m.capacity(), 0u);
}

TEST(OpenMap, SurvivesGrowthAndEraseIf) {
  flow::FlowTable<Val> m;
  for (std::uint64_t k = 1; k <= 3000; ++k) m.insert(k).first->payload = 1;
  EXPECT_EQ(m.size(), 3000u);
  for (std::uint64_t k = 1; k <= 3000; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
  }
  const std::size_t removed =
      m.erase_if([](std::uint64_t k, const Val&) { return k % 2 == 0; });
  EXPECT_EQ(removed, 1500u);
  EXPECT_EQ(m.size(), 1500u);
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_NE(m.find(3), nullptr);
}

// ------------------------------------------------- board-level behavior

struct Fixture {
  sim::Engine eng;
  std::unique_ptr<Node> node;

  explicit Fixture(NodeConfig cfg = make_3000_600_config()) {
    cfg.link.base_delay_us = 1.0;
    node = std::make_unique<Node>(eng, cfg);
    node->out.set_sink(
        [this](int lane, const atm::Cell& c) { node->rxp.on_cell(lane, c); });
  }
};

TEST(FlowBoard, QuarantineSurvivesTableGrowth) {
  // Quarantine one VCI, then map thousands more (several rehashes), then
  // offer traffic on the quarantined VCI: every cell must still drop.
  Fixture f;
  Node& n = *f.node;
  n.rxp.quarantine_vci(77);
  const std::size_t cap = n.rxp.flow_capacity();
  for (atm::Vci v = 100000; v < 105000; ++v) n.map_kernel_vci(v);
  EXPECT_GE(n.rxp.flow_capacity(), 8 * cap);

  std::vector<std::uint8_t> pdu(256, 0xAB);
  n.rxp.start_generator_multi(77, {pdu}, 5, 0);
  f.eng.run();
  EXPECT_GT(n.rxp.quarantine_drops(), 0u);
  EXPECT_EQ(n.rxp.pdus_completed(), 0u);
}

TEST(FlowBoard, UnmapDuringReassemblyDropsCleanlyAndReleasesState) {
  // A large PDU is in flight when its VCI is unmapped: the tail cells must
  // be dropped as unmapped traffic (no delivery, no crash) and every held
  // buffer must be released once the abort settles.
  Fixture f;
  Node& n = *f.node;
  const atm::Vci vci = 300;
  n.map_kernel_vci(vci);

  std::uint64_t delivered = 0;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) {
    ++delivered;
    return at;
  });

  std::vector<std::uint8_t> payload(20000, 0x5C);  // ~420 cells
  const mem::VirtAddr va =
      n.kernel_space.alloc(static_cast<std::uint32_t>(payload.size()), 41);
  n.kernel_space.write(va, payload);
  const auto sc =
      n.kernel_space.scatter(va, static_cast<std::uint32_t>(payload.size()));
  n.driver.send(f.eng.now(), vci, sc);
  // Unmap roughly mid-PDU (the transfer spans hundreds of microseconds).
  f.eng.schedule(sim::us(60), [&] { n.rxp.unmap_vci(vci); });
  f.eng.run();

  EXPECT_EQ(delivered, 0u);
  EXPECT_GT(n.rxp.cells_unmapped(), 0u) << "tail cells land unmapped";
  EXPECT_EQ(n.rxp.vci_buffers_held(vci), 0u);
}

TEST(FlowBoard, FingerprintPinnedWithHundredThousandVcis) {
  // The chaos runner's end-to-end fingerprint, with the flow tables grown
  // to 10^5 mapped VCIs, must repeat and match the recorded value: growth
  // and iteration order are both schedule-deterministic.
  chaos::Schedule s;  // no faults; the population is the stressor
  s.seed = 12;
  chaos::RunnerConfig cfg;
  cfg.horizon = sim::ms(6);
  cfg.arq_msgs = 20;
  cfg.dgram_msgs = 8;
  cfg.rpc_calls = 4;
  cfg.adc_msgs = 6;
  cfg.bulk_vcis = 100000;
  const chaos::Report first = chaos::run_schedule(s, cfg);
  EXPECT_TRUE(first.ok()) << (first.violations.empty()
                                  ? ""
                                  : first.violations[0]);
  const chaos::Report again = chaos::run_schedule(s, cfg);
  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.fingerprint, 0xc346df55298bd25cULL);
}

}  // namespace
}  // namespace osiris
