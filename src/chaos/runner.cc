#include "chaos/runner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "adc/adc.h"
#include "osiris/audit.h"
#include "osiris/node.h"
#include "osiris/stats.h"
#include "proto/arq.h"
#include "proto/message.h"
#include "proto/rpc.h"
#include "proto/stack.h"
#include "sim/trace.h"

namespace osiris::chaos {

namespace {

constexpr std::uint8_t kDgramMagic0 = 0xD6;  // never an ARQ type byte (1/2)
constexpr std::uint8_t kDgramMagic1 = 0x47;

std::vector<std::uint8_t> tagged(std::size_t bytes, std::uint32_t tag) {
  std::vector<std::uint8_t> v(bytes < 4 ? 4 : bytes);
  v[0] = static_cast<std::uint8_t>(tag >> 24);
  v[1] = static_cast<std::uint8_t>(tag >> 16);
  v[2] = static_cast<std::uint8_t>(tag >> 8);
  v[3] = static_cast<std::uint8_t>(tag);
  for (std::size_t i = 4; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(tag * 31 + i);
  }
  return v;
}

std::vector<std::uint8_t> dgram_payload(std::size_t bytes, std::uint32_t tag) {
  std::vector<std::uint8_t> v = tagged(bytes < 6 ? 6 : bytes, tag);
  // The magic pair displaces the tag so a datagram misrouted onto the ARQ
  // VCI parses as malformed (type 0xD6) instead of as a data frame.
  v.insert(v.begin(), {kDgramMagic0, kDgramMagic1});
  return v;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

adc::Adc::Deps deps_of(Node& n) {
  return adc::Adc::Deps{n.eng,   n.cfg.machine, n.cpu, n.intc, n.bus, n.pm,
                        n.cache, n.frames,      n.ram, n.txp,  n.rxp};
}

NodeConfig chaos_node(sim::Trace* trace, fault::FaultPlane* hw,
                      std::uint64_t seed) {
  NodeConfig c = make_3000_600_config();
  c.board.reassembly = "seq";  // per-cell identity tolerates cell loss
  c.trace = trace;
  c.faults = hw;
  c.seed = seed;
  return c;
}

std::uint64_t plane_fired_total(const fault::FaultPlane& fp) {
  std::uint64_t n = 0;
  for (int i = 0; i < static_cast<int>(fault::Point::kCount); ++i) {
    n += fp.lifetime_fired(static_cast<fault::Point>(i));
  }
  return n;
}

}  // namespace

Report run_schedule(const Schedule& sch, const RunnerConfig& cfg) {
  Report rep;

  // Sinks and recovery state live above the testbed so driver reset hooks
  // (which reference them) die before they do.
  std::vector<std::uint32_t> arq_tags;            // delivery order on vci_arq
  std::vector<sim::Tick> arq_times;               // matching delivery times
  std::vector<std::optional<sim::Tick>> resets;   // open = not yet converged
  std::uint64_t arq_payload_errors = 0;
  std::uint64_t dgram_ok = 0, adc_ok = 0, foreign = 0;
  std::uint64_t rpc_done = 0, rpc_timeo = 0;

  // Four independent planes, one hardware and one tenant per node, each
  // with its own seeded RNG stream. The fingerprint hashes every plane's
  // activity separately, so the split is part of each recorded result.
  sim::Trace trace_a(4096), trace_b(4096);
  fault::FaultPlane hw_a(sch.seed * 4 + 1), hw_b(sch.seed * 4 + 2);
  fault::FaultPlane tenant_a(sch.seed * 4 + 3), tenant_b(sch.seed * 4 + 4);

  Testbed tb(chaos_node(&trace_a, &hw_a, sch.seed * 2 + 1),
             chaos_node(&trace_b, &hw_b, sch.seed * 2 + 2));

  const atm::Vci vci_arq = tb.open_kernel_path();
  const atm::Vci vci_dgram = tb.open_kernel_path();
  // Background population: grow the flow tables to cfg.bulk_vcis mapped
  // (idle) channels so every fault-recovery path below runs against the
  // table shape a busy host would have.
  for (int i = 0; i < cfg.bulk_vcis; ++i) tb.open_kernel_path();

  proto::StackConfig sc;
  sc.udp_checksum = true;
  std::unique_ptr<proto::ProtoStack> sa = tb.a.make_stack(sc);
  std::unique_ptr<proto::ProtoStack> sb = tb.b.make_stack(sc);

  proto::ArqConfig ac;
  ac.rto = cfg.arq_rto;
  ac.max_rto = cfg.arq_max_rto;
  ac.max_retries = cfg.arq_max_retries;
  proto::ArqEndpoint arq_a(tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu,
                           tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu,
                           tb.b.cfg.machine, ac);
  arq_a.bind(vci_arq);
  arq_b.bind(vci_arq);

  arq_b.set_sink([&](sim::Tick at, atm::Vci vci,
                     std::vector<std::uint8_t>&& data) {
    if (vci == vci_arq) {
      const std::uint32_t want =
          static_cast<std::uint32_t>(arq_tags.size());
      if (data != tagged(cfg.arq_bytes, want)) ++arq_payload_errors;
      std::uint32_t tag = 0;
      if (data.size() >= 4) {
        tag = (static_cast<std::uint32_t>(data[0]) << 24) |
              (static_cast<std::uint32_t>(data[1]) << 16) |
              (static_cast<std::uint32_t>(data[2]) << 8) | data[3];
      }
      arq_tags.push_back(tag);
      arq_times.push_back(at);
      // A reliable in-order delivery is the convergence witness: every
      // reset opened before it has now been recovered from end to end.
      for (auto& r : resets) {
        if (r.has_value()) {
          rep.recovery_us.push_back(sim::to_us(at - *r));
          r.reset();
        }
      }
    } else if (vci == vci_dgram && data.size() >= 2 &&
               data[0] == kDgramMagic0 && data[1] == kDgramMagic1) {
      ++dgram_ok;
    } else {
      ++foreign;  // misrouted onto a VCI it was never sent on
    }
  });

  // Convergence probes: every kernel-driver reset opens a recovery span.
  tb.a.driver.add_reset_hook([&resets](sim::Tick at) {
    resets.emplace_back(at);
  });
  tb.b.driver.add_reset_hook([&resets](sim::Tick at) {
    resets.emplace_back(at);
  });

  // ADC pair 1: user-space RPC on a clean tenant. Pair 2: a raw message
  // stream whose tenant planes carry the adversary points.
  adc::Adc rpc_cli(deps_of(tb.a), 1, {850}, 1, sc);
  adc::Adc rpc_srv(deps_of(tb.b), 1, {850}, 1, sc);
  proto::RpcEndpoint client(tb.a.eng, rpc_cli.stack(), rpc_cli.space(),
                            tb.a.cpu, tb.a.cfg.machine);
  proto::RpcEndpoint server(tb.b.eng, rpc_srv.stack(), rpc_srv.space(),
                            tb.b.cpu, tb.b.cfg.machine);
  rpc_cli.authorize(client.arena_buffers());
  rpc_srv.authorize(server.arena_buffers());
  server.serve([](std::vector<std::uint8_t> req) {
    std::reverse(req.begin(), req.end());
    return req;
  });

  adc::Adc adc_tx(deps_of(tb.a), 2, {860}, 2, sc);
  adc::Adc adc_rx(deps_of(tb.b), 2, {860}, 2, sc);
  adc_tx.set_fault_plane(&tenant_a);
  adc_rx.set_fault_plane(&tenant_b);
  adc_rx.set_sink([&](sim::Tick, std::uint16_t,
                      std::vector<std::uint8_t>&& data) {
    if (data.size() >= 4) ++adc_ok;
  });

  // QoS pressure alongside the faults: kernel traffic outweighs the raw
  // ADC tenant, which is also rate-limited; the datagram VCI gets a
  // receive-side buffer quota.
  tb.a.txp.set_queue_weight(0, 2);
  tb.a.txp.set_queue_weight(2, 1);
  tb.a.txp.set_rate_limit(2, 80e6, 32 * 1024);
  tb.b.rxp.set_vci_quota(vci_dgram, 64);

  // Watchdogs from t=0: any wedge during traffic or the retransmission
  // tail is rescued within wd_deadline.
  const sim::Tick wd_until = cfg.horizon + cfg.drain_tail;
  tb.a.start_watchdog(cfg.wd_period, cfg.wd_deadline, wd_until);
  tb.b.start_watchdog(cfg.wd_period, cfg.wd_deadline, wd_until);

  // Apply the schedule as timed arm/disarm events on the owning node's
  // planes.
  for (const Action& a : sch.actions) {
    Node& n = (a.node == 0) ? tb.a : tb.b;
    fault::FaultPlane& plane =
        is_tenant_point(a.point) ? (a.node == 0 ? tenant_a : tenant_b)
                                 : (a.node == 0 ? hw_a : hw_b);
    fault::FaultPlane* pp = &plane;
    n.eng.schedule_at(a.start,
                      [pp, p = a.point, spec = a.spec] { pp->arm(p, spec); });
    if (a.end > a.start) {
      n.eng.schedule_at(a.end, [pp, p = a.point] { pp->disarm(p); });
    }
  }

  // Traffic. All payloads are single-fragment (well under the 16 KB MTU),
  // so a drained run can insist on zero pending reassemblies.
  const sim::Tick arq_gap = cfg.horizon / (cfg.arq_msgs > 0 ? cfg.arq_msgs : 1);
  for (int i = 0; i < cfg.arq_msgs; ++i) {
    tb.a.eng.schedule_at(static_cast<sim::Tick>(i) * arq_gap, [&, i] {
      arq_a.send(tb.a.eng.now(), vci_arq,
                 tagged(cfg.arq_bytes, static_cast<std::uint32_t>(i)));
      ++rep.arq_sent;
    });
  }
  const sim::Tick dg_gap =
      cfg.horizon / (cfg.dgram_msgs > 0 ? cfg.dgram_msgs : 1);
  for (int i = 0; i < cfg.dgram_msgs; ++i) {
    tb.a.eng.schedule_at(static_cast<sim::Tick>(i) * dg_gap + 17, [&, i] {
      arq_a.send(tb.a.eng.now(), vci_dgram,
                 dgram_payload(cfg.dgram_bytes, static_cast<std::uint32_t>(i)));
      ++rep.dgram_sent;
    });
  }
  const sim::Tick rpc_gap =
      cfg.horizon / (cfg.rpc_calls > 0 ? cfg.rpc_calls : 1);
  for (int i = 0; i < cfg.rpc_calls; ++i) {
    tb.a.eng.schedule_at(static_cast<sim::Tick>(i) * rpc_gap + 31, [&, i] {
      ++rep.rpc_issued;
      client.call(
          tb.a.eng.now(), 850, tagged(64, static_cast<std::uint32_t>(i)),
          [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
            ++rpc_done;
            if (!r.has_value()) ++rpc_timeo;
          },
          cfg.rpc_timeout, proto::RpcRetryPolicy{.retries = cfg.rpc_retries});
    });
  }
  const sim::Tick adc_gap = cfg.horizon / (cfg.adc_msgs > 0 ? cfg.adc_msgs : 1);
  for (int i = 0; i < cfg.adc_msgs; ++i) {
    tb.a.eng.schedule_at(static_cast<sim::Tick>(i) * adc_gap + 43, [&, i] {
      const proto::Message m = proto::Message::from_payload(
          adc_tx.space(), tagged(cfg.adc_bytes, static_cast<std::uint32_t>(i)));
      adc_tx.authorize(m.scatter());
      adc_tx.send(tb.a.eng.now(), 860, m);
      ++rep.adc_sent;
    });
  }

  tb.run();
  // Post-drain reconciliation, then run the completions it scheduled.
  tb.a.driver.reclaim_tx(tb.now());
  tb.b.driver.reclaim_tx(tb.now());
  tb.a.driver.flush_partials(tb.now());
  tb.b.driver.flush_partials(tb.now());
  tb.run();

  // ---- invariants ----
  auto violate = [&rep](const std::string& s) { rep.violations.push_back(s); };

  for (const std::string& v : obs::audit(tb)) violate("audit: " + v);

  rep.arq_delivered = arq_tags.size();
  rep.arq_retransmissions = arq_a.retransmissions();
  rep.arq_resyncs = arq_a.resyncs() + arq_b.resyncs();
  rep.dgram_delivered = dgram_ok;
  rep.adc_delivered = adc_ok;
  rep.foreign = foreign;
  rep.rpc_completed = rpc_done;
  rep.rpc_timeouts = rpc_timeo;
  rep.resets_a = tb.a.driver.watchdog_resets();
  rep.resets_b = tb.b.driver.watchdog_resets();
  rep.faults_fired = plane_fired_total(hw_a) + plane_fired_total(hw_b) +
                     plane_fired_total(tenant_a) + plane_fired_total(tenant_b);
  rep.end = tb.now();
  rep.events = tb.dispatched();

  if (arq_a.dead(vci_arq)) {
    violate("arq: sender gave up (vci declared dead after " +
            std::to_string(arq_a.retransmissions()) + " retransmissions)");
  } else if (rep.arq_delivered != rep.arq_sent) {
    violate("arq: goodput floor broken: delivered " +
            std::to_string(rep.arq_delivered) + " of " +
            std::to_string(rep.arq_sent));
  }
  for (std::size_t i = 0; i < arq_tags.size(); ++i) {
    if (arq_tags[i] != i) {
      violate("arq: delivery " + std::to_string(i) + " carried tag " +
              std::to_string(arq_tags[i]) + " (reorder/dup/loss)");
      break;
    }
  }
  if (arq_payload_errors > 0) {
    violate("arq: " + std::to_string(arq_payload_errors) +
            " deliveries with corrupt payload");
  }
  if (!arq_a.dead(vci_arq) && !arq_a.idle()) {
    violate("arq: sender not idle after drain");
  }
  if (rep.dgram_delivered > rep.dgram_sent) {
    violate("dgram: duplicated deliveries (" +
            std::to_string(rep.dgram_delivered) + " > " +
            std::to_string(rep.dgram_sent) + ")");
  }
  // A tenant_burst firing turns one counted send attempt into four stack
  // sends, so each firing legitimately adds up to three extra deliveries.
  const std::uint64_t burst_extra =
      3 * tenant_a.lifetime_fired(fault::Point::kTenantBurst);
  if (rep.adc_delivered > rep.adc_sent + burst_extra) {
    violate("adc: duplicated deliveries (" +
            std::to_string(rep.adc_delivered) + " > " +
            std::to_string(rep.adc_sent) + " sent + " +
            std::to_string(burst_extra) + " burst copies)");
  }
  if (rep.rpc_completed != rep.rpc_issued) {
    violate("rpc: " + std::to_string(rep.rpc_issued - rep.rpc_completed) +
            " calls never completed (lost timer or callback)");
  }

  // Kernel-driver leak checks. ADC channel drivers are exempt: a tenant
  // that died mid-chain legitimately leaves an EOP-less descriptor behind
  // until the OS reaps the channel.
  auto leak_check = [&](const char* name, Node& n,
                        proto::ProtoStack& stack) {
    if (n.driver.wiring().wired_frames() != 0) {
      violate(std::string(name) + ": " +
              std::to_string(n.driver.wiring().wired_frames()) +
              " frames still wired after drain");
    }
    if (n.driver.tx_descs_retired() != n.driver.tx_descs_accepted()) {
      violate(std::string(name) + ": tx descriptors leaked (" +
              std::to_string(n.driver.tx_descs_accepted()) + " accepted, " +
              std::to_string(n.driver.tx_descs_retired()) + " retired)");
    }
    if (n.driver.recv_backlog() != 0) {
      violate(std::string(name) + ": receive backlog not drained");
    }
    if (stack.pending_reassemblies() != 0) {
      violate(std::string(name) + ": " +
              std::to_string(stack.pending_reassemblies()) +
              " reassemblies pending after drain (single-fragment traffic)");
    }
  };
  leak_check("node a", tb.a, *sa);
  leak_check("node b", tb.b, *sb);

  // ---- fingerprint ----
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t t : arq_tags) h = fnv1a(h, t);
  for (const sim::Tick t : arq_times) h = fnv1a(h, t);
  h = fnv1a(h, rep.arq_delivered);
  h = fnv1a(h, rep.dgram_delivered);
  h = fnv1a(h, rep.adc_delivered);
  h = fnv1a(h, rep.foreign);
  h = fnv1a(h, rep.rpc_completed);
  h = fnv1a(h, rep.rpc_timeouts);
  h = fnv1a(h, server.served());
  h = fnv1a(h, rep.resets_a);
  h = fnv1a(h, rep.resets_b);
  h = fnv1a(h, rep.arq_retransmissions);
  h = fnv1a(h, rep.arq_resyncs);
  for (const fault::FaultPlane* fp : {&hw_a, &hw_b, &tenant_a, &tenant_b}) {
    for (int i = 0; i < static_cast<int>(fault::Point::kCount); ++i) {
      h = fnv1a(h, fp->lifetime_fired(static_cast<fault::Point>(i)));
      h = fnv1a(h, fp->lifetime_consulted(static_cast<fault::Point>(i)));
    }
  }
  h = fnv1a(h, rep.end);
  rep.fingerprint = h;

  if (cfg.collect_postmortem) {
    std::ostringstream os;
    os << "== fault planes ==\n";
    os << "[node a hw]\n" << hw_a.summary();
    os << "[node b hw]\n" << hw_b.summary();
    os << "[node a tenant]\n" << tenant_a.summary();
    os << "[node b tenant]\n" << tenant_b.summary();
    os << "== node stats ==\n";
    os << "[node a]\n" << osiris::stats(tb.a).to_text();
    os << "[node b]\n" << osiris::stats(tb.b).to_text();
    os << "== trace tail (node a) ==\n" << trace_a.dump(40);
    os << "== trace tail (node b) ==\n" << trace_b.dump(40);
    rep.postmortem = os.str();
  }
  return rep;
}

}  // namespace osiris::chaos
