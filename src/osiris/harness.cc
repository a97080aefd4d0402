#include "osiris/harness.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string>

#include "atm/checksum.h"
#include "osiris/stats.h"
#include "proto/message.h"

namespace osiris::harness {

LatencyResult ping_pong(Testbed& tb, proto::ProtoStack& sa,
                        proto::ProtoStack& sb, atm::Vci vci,
                        std::uint32_t msg_bytes, int iterations) {
  // One message per direction, reused across iterations (the test program
  // sends the same buffer repeatedly).
  std::vector<std::uint8_t> payload(msg_bytes);
  for (std::uint32_t i = 0; i < msg_bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  proto::Message ma =
      proto::Message::from_payload(tb.a.kernel_space, payload, /*offset=*/0);
  proto::Message mb =
      proto::Message::from_payload(tb.b.kernel_space, payload, /*offset=*/0);

  sim::Summary rtts;
  int remaining = iterations;
  sim::Tick send_started = 0;

  const host::MachineConfig& mca = tb.a.cfg.machine;
  const host::MachineConfig& mcb = tb.b.cfg.machine;

  sb.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
    // Echo server: consume and reply.
    sim::Tick t = tb.b.cpu.exec(at, host::Work{mcb.app_recv, 0});
    t = tb.b.cpu.exec(t, host::Work{mcb.app_send, 0});
    sb.send(t, v, mb);
  });
  sa.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
    const sim::Tick t = tb.a.cpu.exec(at, host::Work{mca.app_recv, 0});
    rtts.add(sim::to_us(t - send_started));
    if (--remaining > 0) {
      send_started = t;
      const sim::Tick t2 = tb.a.cpu.exec(t, host::Work{mca.app_send, 0});
      sa.send(t2, v, ma);
    }
  });

  send_started = tb.now();
  const sim::Tick t0 = tb.a.cpu.exec(tb.now(), host::Work{mca.app_send, 0});
  sa.send(t0, vci, ma);
  tb.run();

  LatencyResult r;
  r.rtt_us_mean = rtts.mean();
  r.rtt_us_min = rtts.min();
  r.rtt_us_max = rtts.max();
  r.iterations = rtts.count();
  return r;
}

std::vector<std::vector<std::uint8_t>> make_udp_fragments(
    std::uint32_t msg_bytes, std::uint32_t ip_mtu, bool udp_checksum) {
  if (ip_mtu <= proto::kIpHeader) throw std::invalid_argument("MTU too small");
  std::vector<std::uint8_t> payload(msg_bytes);
  for (std::uint32_t i = 0; i < msg_bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 3);
  }
  // UDP packet = 8-byte header + payload.
  std::vector<std::uint8_t> pkt(proto::kUdpHeader + msg_bytes, 0);
  std::copy(payload.begin(), payload.end(), pkt.begin() + proto::kUdpHeader);
  if (udp_checksum) {
    const std::uint16_t ck = atm::InternetChecksum::of(payload);
    pkt[4] = static_cast<std::uint8_t>(ck >> 8);
    pkt[5] = static_cast<std::uint8_t>(ck);
  }

  const std::uint32_t frag_data = ip_mtu - proto::kIpHeader;
  const auto total = static_cast<std::uint32_t>(pkt.size());
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint32_t off = 0; off < total; off += frag_data) {
    const std::uint32_t n = std::min(frag_data, total - off);
    std::vector<std::uint8_t> frag(proto::kIpHeader + n);
    const std::uint32_t flen = n + proto::kIpHeader;
    frag[0] = static_cast<std::uint8_t>(flen >> 24);
    frag[1] = static_cast<std::uint8_t>(flen >> 16);
    frag[2] = static_cast<std::uint8_t>(flen >> 8);
    frag[3] = static_cast<std::uint8_t>(flen);
    frag[4] = 0;  // ip id (safe to reuse: messages are sequential)
    frag[5] = 1;
    frag[6] = static_cast<std::uint8_t>(off >> 24);
    frag[7] = static_cast<std::uint8_t>(off >> 16);
    frag[8] = static_cast<std::uint8_t>(off >> 8);
    frag[9] = static_cast<std::uint8_t>(off);
    frag[10] = (off + n < total) ? 1 : 0;
    frag[11] = 17;
    std::copy(pkt.begin() + off, pkt.begin() + off + n,
              frag.begin() + proto::kIpHeader);
    out.push_back(std::move(frag));
  }
  return out;
}

ThroughputResult receive_throughput(Node& n, proto::ProtoStack& stack,
                                    atm::Vci vci, std::uint32_t msg_bytes,
                                    std::uint64_t n_msgs,
                                    const proto::StackConfig& scfg) {
  n.map_kernel_vci(vci);
  const auto frags =
      make_udp_fragments(msg_bytes, scfg.ip_mtu, scfg.udp_checksum);

  std::uint64_t delivered = 0;
  sim::Tick first = 0, last = 0;
  const host::MachineConfig& mc = n.cfg.machine;
  stack.set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
    if (d.size() != msg_bytes) throw std::logic_error("receive_throughput: size");
    const sim::Tick t = n.cpu.exec(at, host::Work{mc.app_recv, 0});
    if (delivered == 0) first = t;
    last = t;
    ++delivered;
  });

  n.intc.reset_stats();
  n.rxp.start_generator_multi(vci, frags, n_msgs, 0);
  n.eng.run();

  ThroughputResult r;
  r.messages = delivered;
  r.interrupts = n.intc.raised();
  r.pdus = n.driver.pdus_received();
  r.interrupts_per_pdu =
      r.pdus == 0 ? 0.0 : static_cast<double>(r.interrupts) / static_cast<double>(r.pdus);
  if (delivered >= 2) {
    r.duration_us = sim::to_us(last - first);
    r.mbps = sim::mbps(static_cast<std::uint64_t>(msg_bytes) * (delivered - 1),
                       last - first);
  }
  return r;
}

ThroughputResult transmit_throughput(Testbed& tb, Node& sender,
                                     proto::ProtoStack& s_tx,
                                     proto::ProtoStack& s_rx,
                                     atm::Vci vci, std::uint32_t msg_bytes,
                                     std::uint64_t n_msgs) {
  std::vector<std::uint8_t> payload(msg_bytes);
  for (std::uint32_t i = 0; i < msg_bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 17 + 1);
  }
  proto::Message m =
      proto::Message::from_payload(sender.kernel_space, payload, /*offset=*/0);

  std::uint64_t delivered = 0;
  sim::Tick first = 0, last = 0;
  s_rx.set_sink([&](sim::Tick at, std::uint16_t, std::vector<std::uint8_t>&& d) {
    if (d.size() != msg_bytes) throw std::logic_error("transmit_throughput: size");
    if (delivered == 0) first = at;
    last = at;
    ++delivered;
  });

  // The sending test program issues the next send as soon as the previous
  // one returns; a send that fills the transmit queue blocks the program
  // until the driver's half-empty resume fires (§2.1.2).
  const host::MachineConfig& mc = sender.cfg.machine;
  auto pump = std::make_shared<std::function<void(sim::Tick, std::uint64_t)>>();
  // The continuation captures itself only weakly: a strong self-capture
  // would be a shared_ptr cycle, and the local `pump` already outlives the
  // run() below.
  std::weak_ptr<std::function<void(sim::Tick, std::uint64_t)>> wp = pump;
  *pump = [&tb, &sender, &s_tx, &mc, &m, vci, n_msgs, wp](sim::Tick t,
                                                          std::uint64_t i) {
    while (i < n_msgs) {
      t = sender.cpu.exec(t, host::Work{mc.app_send, 0});
      t = s_tx.send(t, vci, m);
      ++i;
      if (sender.driver.tx_suspended()) {
        const std::uint64_t next = i;
        sender.driver.set_tx_resume([wp, next](sim::Tick rt) {
          if (const auto p = wp.lock()) (*p)(rt, next);
        });
        return;
      }
    }
  };
  (*pump)(tb.now(), 0);
  tb.run();

  ThroughputResult r;
  r.messages = delivered;
  if (delivered >= 2) {
    r.duration_us = sim::to_us(last - first);
    r.mbps = sim::mbps(static_cast<std::uint64_t>(msg_bytes) * (delivered - 1),
                       last - first);
  }
  return r;
}

namespace {

/// Value of `--<flag> V` / `--<flag>=V`: nullopt when the flag is absent, ""
/// when it is the last argument with no value.
std::optional<std::string> flag_value(int argc, char** argv,
                                      const std::string& flag) {
  const std::string eq = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) return i + 1 < argc ? argv[i + 1] : "";
    if (arg.rfind(eq, 0) == 0) return arg.substr(eq.size());
  }
  return std::nullopt;
}

}  // namespace

std::string parse_string_flag(int argc, char** argv, const std::string& flag) {
  return flag_value(argc, argv, flag).value_or("");
}

std::optional<std::uint64_t> parse_uint_flag(int argc, char** argv,
                                             const std::string& flag,
                                             std::uint64_t fallback) {
  const std::optional<std::string> v = flag_value(argc, argv, flag);
  if (!v) return fallback;
  // from_chars rejects signs and whitespace; the end check rejects trailing
  // junk and the empty string.
  std::uint64_t n = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, n);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return n;
}

OutputFlags parse_output_flags(int argc, char** argv) {
  OutputFlags f;
  f.stats_json = parse_string_flag(argc, argv, "--stats-json");
  f.trace_out = parse_string_flag(argc, argv, "--trace-out");
  return f;
}

std::optional<ChaosFlags> parse_chaos_flags(int argc, char** argv) {
  const std::optional<std::uint64_t> seed =
      parse_uint_flag(argc, argv, "--chaos-seed", 0);
  if (!seed) return std::nullopt;
  ChaosFlags f;
  f.seed = *seed;
  f.seed_set = flag_value(argc, argv, "--chaos-seed").has_value();
  f.replay = parse_string_flag(argc, argv, "--chaos-replay");
  return f;
}

bool write_stats_json(const std::string& path, Testbed& tb,
                      const obs::PduSpans* spans_a,
                      const obs::PduSpans* spans_b) {
  obs::Registry reg;
  register_metrics(reg, tb.a, "a.");
  register_metrics(reg, tb.b, "b.");
  if (spans_a != nullptr) spans_a->register_into(reg, "a.span.");
  if (spans_b != nullptr) spans_b->register_into(reg, "b.span.");
  std::ofstream os(path);
  if (!os) return false;
  os << reg.snapshot().to_json() << "\n";
  return os.good();
}

bool write_trace_json(const std::string& path, const sim::Trace* trace_a,
                      const sim::Trace* trace_b, const obs::PduSpans* spans_a,
                      const obs::PduSpans* spans_b) {
  std::vector<obs::TraceSource> srcs;
  srcs.push_back(obs::TraceSource{"a", trace_a, spans_a});
  srcs.push_back(obs::TraceSource{"b", trace_b, spans_b});
  return obs::write_chrome_trace_file(path, srcs);
}

}  // namespace osiris::harness
