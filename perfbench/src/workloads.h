// The four perfbench workloads, each run as repeatable blocks.
//
// A block is the workload's fixed unit of work for one seed: the same seed
// always gives the same block, so every block of a run must reproduce the
// first block's fingerprint bit for bit. A run repeats blocks until its time
// is up; the benchmark reports medians over blocks and percentiles over
// items. Every workload is closed-loop, and the benchmark drives the layers
// only through their public functions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.h"
#include "obs/spans.h"
#include "sim/stats.h"

namespace perfbench {

enum class Workload { kRxStream, kTxStream, kPingPong, kChaos };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Instruments attached to a traced block; every member stays null (and the
/// block untouched) in untraced runs.
struct Tracing {
  SpanLog* spans = nullptr;                     // wall-clock spans
  osiris::obs::PduSpans* pdu = nullptr;         // simulated stages, merged
  osiris::sim::Log2Histogram* steps = nullptr;  // step probe, ns per batch
  std::vector<double>* send_ns = nullptr;       // wall ns of each send
  int run = 0;                                  // block index (span run id)
};

struct BlockResult {
  double wall_s = 0;   // wall: the whole block, teardown included, probes not
  double probe_s = 0;  // wall: host-speed probes taken between items
  std::uint64_t probes = 0;
  double setup_s = 0;  // wall: nodes, testbeds, paths, stacks, inputs
  double run_s = 0;    // wall: inside Engine::run / Testbed::run / run_schedule
  std::vector<double> item_ms;  // wall per item (setup share included)
  std::uint64_t pdus = 0;       // PDUs (or chaos deliveries) delivered
  std::uint64_t failed = 0;     // items that failed the correctness gate
  std::uint64_t fingerprint = 0;
  /// (simulated, paper) pairs for paper_err_pct; empty for chaos.
  std::vector<std::pair<double, double>> paper_points;
  /// Simulated counters summed over the block's nodes (see workloads.cc for
  /// the names); they repeat exactly for a seed.
  std::map<std::string, double> sim;
  /// Message sizes the block sent, in bytes (kernel-pass input shapes).
  std::vector<std::uint32_t> msg_bytes;
};

/// Folds a block's simulated outcomes into its fingerprint. The engine's own
/// bookkeeping (sim.events, sim.boxed_events, sim.far_scheduled,
/// sim.cancelled) is left out: it describes how the simulator is built, not
/// what it simulates, so a change that only speeds the simulator up may move
/// it and must still reproduce the pinned fingerprints.
void add_outcomes(Fingerprint& fp, const std::map<std::string, double>& sim);

/// Runs one block. `tiny` shrinks it to a few small items (the smoke tests);
/// `tr` is null for untraced blocks. With `probe`, host_probe_seconds runs
/// before every item and once at the end, outside every timed scope, and is
/// summed into probe_s / probes.
BlockResult run_block(Workload w, std::uint64_t seed, bool tiny,
                      Tracing* tr = nullptr, bool probe = false);

}  // namespace perfbench
