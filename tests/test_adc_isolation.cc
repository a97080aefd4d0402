// Multi-ADC chaos soak (§3.2 hardening capstone): adversarial and crashing
// tenants share the adaptor with well-behaved ones. The firmware's typed
// descriptor validation plus the kernel's AdcSupervisor must contain every
// misbehaviour to the offending channel — the good tenants see byte-exact,
// in-order delivery throughout.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>

#include "adc/adc.h"
#include "adc/supervisor.h"
#include "fault/fault.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

// Payload carrying a sequence number so the sink can verify order AND
// content: byte i of message k is (k * 31 + i * 7) mod 256, with the
// sequence in the first 4 bytes.
std::vector<std::uint8_t> seq_payload(std::uint32_t seq, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seq * 31 + i * 7);
  }
  std::memcpy(v.data(), &seq, sizeof(seq));
  return v;
}

struct GoodTenant {
  std::unique_ptr<adc::Adc> tx, rx;
  std::uint32_t next_expected = 0;
  std::uint64_t received = 0;
  bool corrupt = false;
};

TEST(AdcIsolation, ChaosSoakAdversariesBesideWellBehaved) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;

  const std::size_t base_free_a = tb.a.frames.free_frames();
  const std::size_t base_free_b = tb.b.frames.free_frames();

  // Kernel-side supervision on the sender node, where the adversaries live.
  adc::AdcSupervisor sup(tb.a.eng, tb.a.txp, tb.a.rxp);

  // --- Two well-behaved tenants (pairs 1, 2) -------------------------
  constexpr std::size_t kMsgBytes = 2000;
  constexpr std::uint32_t kMsgs = 12;
  std::map<int, GoodTenant> good;
  for (int pair = 1; pair <= 2; ++pair) {
    const auto vci = static_cast<std::uint16_t>(800 + pair);
    GoodTenant t;
    t.tx = std::make_unique<adc::Adc>(tb.a.adc_deps(), pair,
                                      std::vector<atm::Vci>{vci}, 1, sc);
    t.rx = std::make_unique<adc::Adc>(tb.b.adc_deps(), pair,
                                      std::vector<atm::Vci>{vci}, 1, sc);
    good.emplace(pair, std::move(t));
  }
  for (auto& [pair, t] : good) {
    GoodTenant* gt = &t;
    t.rx->set_sink([gt](sim::Tick, std::uint16_t,
                        std::vector<std::uint8_t>&& d) {
      std::uint32_t seq = 0;
      std::memcpy(&seq, d.data(), sizeof(seq));
      if (seq != gt->next_expected || d != seq_payload(seq, d.size())) {
        gt->corrupt = true;
      }
      ++gt->next_expected;
      ++gt->received;
    });
    sup.watch(*t.tx);
  }

  // --- Adversarial tenant (pair 3): floods forged descriptors --------
  fault::FaultPlane adversary(0xBAD);
  adversary.arm(fault::Point::kAdcGarbageDescriptor,
                {1.0, 0, ~0ull});  // every "send" posts garbage
  auto attacker = std::make_unique<adc::Adc>(
      tb.a.adc_deps(), 3, std::vector<atm::Vci>{810}, 3, sc);  // higher prio
  attacker->set_fault_plane(&adversary);
  sup.watch(*attacker);

  // --- Crashing tenant (pair 4): dies mid-send -----------------------
  fault::FaultPlane crasher(0xDEAD);
  crasher.arm(fault::Point::kAdcAppDeath, {0.0, 3, 1});  // dies on send #3
  auto dier = std::make_unique<adc::Adc>(tb.a.adc_deps(), 4,
                                         std::vector<atm::Vci>{811}, 1, sc);
  auto dier_rx = std::make_unique<adc::Adc>(
      tb.b.adc_deps(), 4, std::vector<atm::Vci>{811}, 1, sc);
  dier->set_fault_plane(&crasher);
  sup.watch(*dier);

  // --- Free-list poisoner (pair 5, on the RECEIVE node) --------------
  // Its driver corrupts every descriptor it recycles; node b's receive
  // firmware must reject them without ever DMAing at a poisoned address.
  adc::AdcSupervisor sup_b(tb.b.eng, tb.b.txp, tb.b.rxp);
  fault::FaultPlane poisoner(0xF01);
  poisoner.arm(fault::Point::kAdcFreeListPoison, {1.0, 0, 64});
  auto poison_tx = std::make_unique<adc::Adc>(
      tb.a.adc_deps(), 5, std::vector<atm::Vci>{812}, 1, sc);
  auto poison_rx = std::make_unique<adc::Adc>(
      tb.b.adc_deps(), 5, std::vector<atm::Vci>{812}, 1, sc);
  poison_rx->set_fault_plane(&poisoner);
  sup_b.watch(*poison_rx);

  // --- The soak ------------------------------------------------------
  std::map<int, proto::Message> msgs;
  std::map<int, std::vector<std::vector<std::uint8_t>>> payloads;
  for (auto& [pair, t] : good) {
    for (std::uint32_t k = 0; k < kMsgs; ++k) {
      payloads[pair].push_back(seq_payload(k, kMsgBytes));
    }
  }
  proto::Message junk =
      proto::Message::from_payload(attacker->space(), seq_payload(0, 256));
  attacker->authorize(junk.scatter());
  proto::Message dm =
      proto::Message::from_payload(dier->space(), seq_payload(0, 1500));
  dier->authorize(dm.scatter());
  proto::Message pm =
      proto::Message::from_payload(poison_tx->space(), seq_payload(0, 3000));
  poison_tx->authorize(pm.scatter());

  sim::Tick t = 0;
  sim::Tick ta = 0, td = 0, tp = 0;
  for (std::uint32_t k = 0; k < kMsgs; ++k) {
    for (auto& [pair, gt] : good) {
      const auto vci = static_cast<std::uint16_t>(800 + pair);
      proto::Message m =
          proto::Message::from_payload(gt.tx->space(), payloads[pair][k]);
      gt.tx->authorize(m.scatter());
      t = gt.tx->send(t, vci, m);
      msgs.emplace(static_cast<int>(k) * 16 + pair, std::move(m));
    }
    // The attacker floods twice per round; the crasher and the poisoned
    // path send normally (the crasher dies on its 3rd send).
    ta = attacker->send(ta, 810, junk);
    ta = attacker->send(ta, 810, junk);
    td = dier->send(td, 811, dm);
    // Four sends per round: the poisoned free list only bites once the
    // initial (clean) 32-buffer pool has been consumed and the firmware
    // starts popping recycled — corrupted — descriptors.
    for (int r = 0; r < 4; ++r) tp = poison_tx->send(tp, 812, pm);
  }
  tb.run();

  // --- Well-behaved tenants: byte-exact, in-order, complete ----------
  for (auto& [pair, gt] : good) {
    EXPECT_EQ(gt.received, kMsgs) << "tenant pair " << pair;
    EXPECT_FALSE(gt.corrupt) << "tenant pair " << pair
                             << " saw out-of-order or corrupted data";
  }

  // --- Attacker: typed violations counted, then quarantined ----------
  EXPECT_GT(sup.violations(attacker->pair()),
            adc::AdcSupervisor::kMaxViolations);
  EXPECT_TRUE(sup.quarantined(attacker->pair()));
  EXPECT_FALSE(sup.quarantined(1));
  EXPECT_FALSE(sup.quarantined(2));
  EXPECT_FALSE(tb.a.txp.queue_attached(attacker->pair()));
  EXPECT_TRUE(tb.a.txp.queue_attached(1));
  EXPECT_TRUE(tb.a.txp.queue_attached(2));
  // The flood exercised several distinct firmware checks.
  const std::uint64_t typed =
      tb.a.txp.violations(board::Violation::kZeroLength) +
      tb.a.txp.violations(board::Violation::kOversizedLength) +
      tb.a.txp.violations(board::Violation::kBadVci) +
      tb.a.txp.violations(board::Violation::kUnauthorizedPage);
  EXPECT_GT(typed, 0u);

  // --- Crasher: dead, its truncated chain never wedged the board -----
  EXPECT_TRUE(dier->dead());
  EXPECT_FALSE(tb.a.txp.stalled());

  // --- Poisoner: rejected at the free list, never used for DMA -------
  EXPECT_GT(tb.b.rxp.violations(board::Violation::kFreeListPoison) +
                tb.b.rxp.violations(board::Violation::kUnauthorizedPage),
            0u);
  EXPECT_GT(sup_b.violations(poison_rx->pair()), 0u);

  // --- Crash-safe teardown of everyone, frames exactly to baseline ---
  attacker->close();
  dier->close();
  dier_rx->close();
  poison_tx->close();
  poison_rx->close();
  for (auto& [pair, gt] : good) {
    gt.tx->close();
    gt.rx->close();
    EXPECT_EQ(gt.tx->driver().wiring().wired_frames(), 0u);
    EXPECT_EQ(gt.rx->driver().wiring().wired_frames(), 0u);
  }
  tb.run();  // drain whatever teardown scheduled
  // Messages are views over space-owned frames, so destroying every Adc
  // (each owns its tenant's address space) must return BOTH nodes' frame
  // allocators exactly to their pre-soak level — nothing wedged in rings,
  // nothing leaked by quarantine, nothing pinned by the dead tenant.
  msgs.clear();
  good.clear();
  attacker.reset();
  dier.reset();
  dier_rx.reset();
  poison_tx.reset();
  poison_rx.reset();
  EXPECT_EQ(tb.a.frames.free_frames(), base_free_a);
  EXPECT_EQ(tb.b.frames.free_frames(), base_free_b);
}

TEST(AdcIsolation, NinthViolationQuarantines) {
  // The budget is eight typed violations per channel: eight forged
  // descriptors leave the channel open, the ninth cuts it off.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::AdcSupervisor sup(tb.a.eng, tb.a.txp, tb.a.rxp);
  fault::FaultPlane forger(0xBAD);
  forger.arm(fault::Point::kAdcGarbageDescriptor, {1.0, 0, ~0ull});
  adc::Adc attacker(tb.a.adc_deps(), 3, {813}, 1, sc);
  attacker.set_fault_plane(&forger);
  sup.watch(attacker);
  const proto::Message junk =
      proto::Message::from_payload(attacker.space(), seq_payload(0, 256));

  sim::Tick t = 0;
  for (int i = 0; i < 8; ++i) t = attacker.send(t, 813, junk);
  tb.run();
  EXPECT_EQ(sup.violations(attacker.pair()), 8u);
  EXPECT_FALSE(sup.quarantined(attacker.pair()));
  EXPECT_TRUE(tb.a.txp.queue_attached(attacker.pair()));

  attacker.send(tb.a.eng.now(), 813, junk);
  tb.run();
  EXPECT_EQ(sup.violations(attacker.pair()), 9u);
  EXPECT_TRUE(sup.quarantined(attacker.pair()));
  EXPECT_FALSE(tb.a.txp.queue_attached(attacker.pair()));
}

}  // namespace
}  // namespace osiris
