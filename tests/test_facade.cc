// Facade-level tests: testbed construction cost, path management
// (abundant VCIs), statistics snapshots, and the RPC protocol configured
// above the stack.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "osiris/stats.h"
#include "proto/rpc.h"

namespace osiris {
namespace {

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(Testbed, BuildTouchesFewHostPages) {
  // Each node's 64 MiB of simulated memory is backed lazily, so a build
  // faults in only the pages it writes: one eagerly zeroed node alone
  // would take 16,384. A count, not a time, so it cannot flake.
  const long before = minor_faults();
  Testbed tb(NodeConfig{}, NodeConfig{});
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, 4096) << "minor page faults to build a testbed";
  EXPECT_EQ(tb.a.pm.size(), NodeConfig{}.mem_bytes);
}

// A path is a VCI mapped on both nodes (§3.1): `open_kernel_path` allocates
// it, `RxProcessor::unmap_vci` closes one end.
TEST(Paths, OpenBindsBothEnds) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got_a = 0, got_b = 0;
  sa->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got_a; });
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got_b; });
  sa->send(0, vci, proto::Message::from_payload(tb.a.kernel_space,
                                                std::vector<std::uint8_t>(100, 1)));
  sb->send(0, vci, proto::Message::from_payload(tb.b.kernel_space,
                                                std::vector<std::uint8_t>(100, 1)));
  tb.run();
  EXPECT_EQ(got_a, 1u);
  EXPECT_EQ(got_b, 1u);
}

TEST(Paths, HundredsOfPathsAreCheap) {
  // "potentially hundreds of paths (connections) on a given host" (§3.1).
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  std::vector<atm::Vci> vcis;
  for (int i = 0; i < 400; ++i) vcis.push_back(tb.open_kernel_path());
  // All distinct.
  std::sort(vcis.begin(), vcis.end());
  EXPECT_EQ(std::adjacent_find(vcis.begin(), vcis.end()), vcis.end());
  // Traffic flows on an arbitrary one.
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(64, 2));
  sa->send(0, vcis[250], m);
  tb.run();
  EXPECT_EQ(got, 1u);
}

TEST(Paths, CloseUnbindsAndTrafficIsDropped) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  tb.a.rxp.unmap_vci(vci);
  tb.b.rxp.unmap_vci(vci);

  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(64, 3));
  sa->send(0, vci, m);
  tb.run();
  EXPECT_EQ(got, 0u) << "cells on a closed VCI are discarded at the board";
  EXPECT_GT(tb.b.rxp.cells_unmapped(), 0u);
}

TEST(Paths, VciReuseAfterCloseWorks) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  tb.a.rxp.unmap_vci(vci);
  tb.b.rxp.unmap_vci(vci);
  // The allocator moves forward, but mapping the same numeric VCI again
  // reopens the path.
  tb.a.map_kernel_vci(vci);
  tb.b.map_kernel_vci(vci);
  EXPECT_NE(tb.open_kernel_path(), vci);
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(64, 4));
  sa->send(0, vci, m);
  tb.run();
  EXPECT_EQ(got, 1u);
}

TEST(Stats, SnapshotReflectsTraffic) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(5000, 5));
  sim::Tick t = 0;
  for (int i = 0; i < 4; ++i) t = sa->send(t, vci, m);
  tb.run();

  const obs::Snapshot a = stats(tb.a);
  const obs::Snapshot b = stats(tb.b);
  EXPECT_EQ(a.counter("tx.pdus_sent"), 4u);
  EXPECT_EQ(b.counter("rx.pdus_completed"), 4u);
  EXPECT_EQ(b.counter("host.pdus_received"), 4u);
  EXPECT_GT(a.counter("tx.cells_sent"), 4 * 100u);
  EXPECT_EQ(a.counter("tx.cells_sent"), b.counter("rx.cells_received"));
  EXPECT_GT(b.counter("host.interrupts"), 0u);
  EXPECT_GT(a.counter("host.dpram_host_accesses"), 0u);
  EXPECT_GT(b.gauge("rx.combine_fraction"), 0.5);
  EXPECT_GT(a.gauge("host.bus_utilization"), 0.0);
  // The text rendering lists the counters by their schema names.
  const std::string text = b.to_text();
  EXPECT_NE(text.find("rx.pdus_completed"), std::string::npos);
  EXPECT_NE(text.find("host.interrupts_per_pdu"), std::string::npos);
}

TEST(Stats, DpramAccessesPerPduAreSmall) {
  // §2.1 goal 1: "minimizing the number of load and store operations
  // required to communicate". A send is ~2 descriptor pushes + doorbell +
  // reaping; a receive is ~2 pops + recycles: tens of accesses, not
  // hundreds.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(16000, 6));
  sim::Tick t = 0;
  for (int i = 0; i < 20; ++i) t = sa->send(t, vci, m);
  tb.run();
  const double per_pdu = stats(tb.b).gauge("host.dpram_accesses_per_pdu");
  EXPECT_GT(per_pdu, 5.0);
  EXPECT_LT(per_pdu, 60.0);
}

// ------------------------------------------------------------------- RPC

struct RpcNet {
  Testbed tb{make_3000_600_config(), make_3000_600_config()};
  atm::Vci vci;
  std::unique_ptr<proto::ProtoStack> sa, sb;
  std::unique_ptr<proto::RpcEndpoint> client, server;

  RpcNet() {
    vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.udp_checksum = true;
    sa = tb.a.make_stack(sc);
    sb = tb.b.make_stack(sc);
    client = std::make_unique<proto::RpcEndpoint>(
        tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu, tb.a.cfg.machine);
    server = std::make_unique<proto::RpcEndpoint>(
        tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu, tb.b.cfg.machine);
  }
};

TEST(Rpc, EchoCall) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) {
    std::reverse(req.begin(), req.end());
    return req;
  });
  std::optional<std::vector<std::uint8_t>> got;
  net.client->call(0, net.vci, {1, 2, 3, 4},
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     got = std::move(r);
                   });
  net.tb.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ(net.client->responses(), 1u);
  EXPECT_EQ(net.server->served(), 1u);
  EXPECT_EQ(net.client->timeouts(), 0u);
}

TEST(Rpc, ManyOutstandingCallsMatchById) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) {
    for (auto& b : req) b = static_cast<std::uint8_t>(b + 1);
    return req;
  });
  int completed = 0;
  sim::Tick t = 0;
  for (std::uint8_t i = 0; i < 50; ++i) {
    t = net.client->call(
        t, net.vci, std::vector<std::uint8_t>(10, i),
        [&completed, i](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
          ASSERT_TRUE(r.has_value());
          EXPECT_EQ((*r)[0], static_cast<std::uint8_t>(i + 1));
          ++completed;
        });
  }
  net.tb.run();
  EXPECT_EQ(completed, 50);
}

TEST(Rpc, TimeoutFiresWhenServerIsDeaf) {
  RpcNet net;
  // No serve(): requests are swallowed as stray.
  bool timed_out = false;
  net.client->call(0, net.vci, {9, 9},
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     timed_out = !r.has_value();
                   },
                   sim::ms(5));
  net.tb.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(net.client->timeouts(), 1u);
  EXPECT_EQ(net.server->stray(), 1u);
}

TEST(Rpc, LateResponseAfterTimeoutIsStray) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) { return req; });
  bool timed_out = false;
  // Timeout far shorter than the ~150 us round trip.
  net.client->call(0, net.vci, std::vector<std::uint8_t>(2000, 7),
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     timed_out = !r.has_value();
                   },
                   sim::us(10));
  net.tb.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(net.client->stray(), 1u) << "the late response must not crash";
}

TEST(Rpc, LargePayloadsFragmentAndReturn) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) {
    return std::vector<std::uint8_t>(req.size() * 2, req.empty() ? 0 : req[0]);
  });
  std::size_t got_len = 0;
  net.client->call(0, net.vci, std::vector<std::uint8_t>(40000, 3),
                   [&](sim::Tick,
                       const std::optional<std::vector<std::uint8_t>>& r) {
                     if (r) got_len = r->size();
                   });
  net.tb.run();
  EXPECT_EQ(got_len, 80000u);
}

}  // namespace
}  // namespace osiris
