// Measurement harness reproducing the paper's §4 experiments.
//
// All measurements are taken between test programs "linked into the
// kernel" (the paper's methodology): application-level send/receive costs
// are charged on the host CPU, but no protection-domain crossing occurs
// unless the experiment says so.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "osiris/node.h"
#include "proto/stack.h"
#include "sim/stats.h"

namespace osiris::harness {

struct LatencyResult {
  double rtt_us_mean = 0;
  double rtt_us_min = 0;
  double rtt_us_max = 0;
  std::uint64_t iterations = 0;
};

/// Kernel-to-kernel ping-pong of `msg_bytes` messages over `vci`,
/// initiated by node `a`'s stack. Echo server runs on node `b`.
LatencyResult ping_pong(Testbed& tb, proto::ProtoStack& sa,
                        proto::ProtoStack& sb, atm::Vci vci,
                        std::uint32_t msg_bytes, int iterations);

struct ThroughputResult {
  double mbps = 0;            // user payload goodput
  std::uint64_t messages = 0;
  double duration_us = 0;     // first-to-last delivery
  std::uint64_t interrupts = 0;
  std::uint64_t pdus = 0;
  double interrupts_per_pdu = 0;
};

/// Builds the on-the-wire fragment PDUs that the protocol stack would
/// produce for one `msg_bytes` UDP message (used to drive the board's
/// fictitious-PDU generator).
std::vector<std::vector<std::uint8_t>> make_udp_fragments(
    std::uint32_t msg_bytes, std::uint32_t ip_mtu, bool udp_checksum);

/// Receive-side throughput in isolation (Figures 2 and 3): the board's
/// receive processor generates messages as fast as the host absorbs them.
ThroughputResult receive_throughput(Node& n, proto::ProtoStack& stack,
                                    atm::Vci vci, std::uint32_t msg_bytes,
                                    std::uint64_t n_msgs,
                                    const proto::StackConfig& scfg);

/// Transmit-side throughput (Figure 4): sender pumps messages back to
/// back; goodput measured at the receiver.
ThroughputResult transmit_throughput(Testbed& tb, Node& sender,
                                     proto::ProtoStack& s_tx,
                                     proto::ProtoStack& s_rx,
                                     atm::Vci vci, std::uint32_t msg_bytes,
                                     std::uint64_t n_msgs);

/// Parses a string-valued `--<flag> V` / `--<flag>=V` option; returns ""
/// when absent. `flag` includes the dashes ("--stats-json").
std::string parse_string_flag(int argc, char** argv, const std::string& flag);

/// Parses an unsigned decimal `--<flag> N` / `--<flag>=N` option. Returns
/// `fallback` when the flag is absent, and nullopt when its value is
/// missing, is not all decimal digits (no sign, no spaces), or does not fit
/// in 64 bits.
std::optional<std::uint64_t> parse_uint_flag(int argc, char** argv,
                                             const std::string& flag,
                                             std::uint64_t fallback);

/// Output sinks requested on an example/soak command line:
///   --stats-json=<path>  write a metrics snapshot of both nodes as JSON
///   --trace-out=<path>   write traces + PDU spans as Chrome trace-event JSON
/// Empty paths mean the flag was absent and nothing is written.
struct OutputFlags {
  std::string stats_json;
  std::string trace_out;
};
OutputFlags parse_output_flags(int argc, char** argv);

/// Chaos-mode options on an example/soak command line (DESIGN.md §12):
///   --chaos-seed=<n>       generate schedule <n> and run it through the
///                          chaos runner instead of the normal scenario
///   --chaos-replay=<file>  parse a recorded schedule (or shrink artifact —
///                          the parser ignores the appended postmortem) and
///                          run exactly that
/// Pure flag parsing: executing a schedule is the caller's job (via
/// osiris_chaos), so binaries that never use chaos mode don't link it.
/// Returns nullopt when --chaos-seed is not an unsigned decimal.
struct ChaosFlags {
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::string replay;
  [[nodiscard]] bool active() const { return seed_set || !replay.empty(); }
};
std::optional<ChaosFlags> parse_chaos_flags(int argc, char** argv);

/// Writes a metrics snapshot covering both testbed nodes (prefixes "a."
/// and "b.", plus any spans' stage histograms) to `path` as JSON. Returns
/// false when the file cannot be opened.
bool write_stats_json(const std::string& path, Testbed& tb,
                      const obs::PduSpans* spans_a = nullptr,
                      const obs::PduSpans* spans_b = nullptr);

/// Writes the nodes' Trace rings and span ledgers to `path` as Chrome
/// trace-event JSON (load in Perfetto / chrome://tracing). Null sources are
/// skipped; returns false when the file cannot be opened.
bool write_trace_json(const std::string& path, const sim::Trace* trace_a,
                      const sim::Trace* trace_b,
                      const obs::PduSpans* spans_a = nullptr,
                      const obs::PduSpans* spans_b = nullptr);

}  // namespace osiris::harness
