// perfbench: runs one workload for a fixed wall-clock budget and prints one
// JSON report line (the last line of stdout). perfbench/run.py builds this
// binary, checks the report against the pinned fingerprints and prints the
// benchmark's result line.
//
//   perfbench --workload <rx_stream|tx_stream|pingpong|chaos> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: half of the budget untraced, half with spans, step probes and
// PDU spans attached, then the kernel pass; it reports the per-layer
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "atm/cell.h"
#include "kernels.h"
#include "ledger.h"
#include "obs/spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace atm = osiris::atm;
namespace obs = osiris::obs;
namespace sim = osiris::sim;
using Clock = std::chrono::steady_clock;

// Interference from other tenants of a shared host only ever adds time, and
// it comes in episodes that can slow a whole block by half. Timings are
// therefore taken from each run's quieter half: the ceil(n/2) blocks with
// the shortest wall time. Every block does the same work, so this discards
// disturbance, not work.
//
// End-to-end runs report item_ms_p90, so they keep going, block by block,
// until the percentile rule (tail_percentile) allows p90 on the items of
// their quieter half.
constexpr double kReportedTail = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

struct HostFacts {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string compiler = std::string("g++ ") + __VERSION__;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitize = PERFBENCH_SANITIZE;
#ifdef __OPTIMIZE__
  bool optimized = true;
#else
  bool optimized = false;
#endif
};

bool timings_allowed(const HostFacts& h) {
  return h.optimized && h.sanitize.empty() && h.build_type != "Debug";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Host-speed scaling. Other tenants of a shared host slow this process by a
// third or more for minutes at a time, longer than a run, so the quieter
// half of one run cannot remove it. End-to-end blocks therefore take a
// host-speed probe (host_probe_seconds: a fixed kernel with no simulator
// code, so no simulator change can move it) before every item and once at
// the end, and scale the block's times by kProbeRefSeconds / mean probe
// time. Any constant would do, since it cancels when two commits are
// compared on one host. Over ten seeds per workload on a shared 4-vCPU Xeon
// VM, the interquartile spread across runs of the end-to-end times was up to
// 0.25 of their median raw and at most 0.08 scaled (probe_evidence in
// perfbench/manifest.json). The raw wall times are reported beside the
// scaled ones.
constexpr double kProbeRefSeconds = 0.002;

/// A sequence of blocks plus the correctness gate over them: every block
/// must pass its own checks and reproduce the first block's fingerprint.
/// Timings come from the quieter half (see kReportedTail), each block's
/// times multiplied by its `scale`.
struct Blocks {
  std::vector<BlockResult> all;
  std::vector<double> scale;  // per block: kProbeRefSeconds / probe time, or 1
  std::uint64_t items = 0;
  std::uint64_t failed = 0;

  void add(BlockResult b) {
    items += b.item_ms.size();
    failed += b.failed;
    if (!all.empty() && b.fingerprint != all.front().fingerprint) {
      failed += b.item_ms.size();
    }
    scale.push_back(b.probes == 0 ? 1.0
                                  : kProbeRefSeconds * static_cast<double>(b.probes) /
                                        b.probe_s);
    all.push_back(std::move(b));
  }
  /// The same blocks with every scale 1: raw wall times.
  [[nodiscard]] Blocks unscaled() const {
    Blocks raw = *this;
    raw.scale.assign(scale.size(), 1.0);
    return raw;
  }
  [[nodiscard]] std::vector<std::size_t> quiet_half() const {
    std::vector<std::size_t> idx(all.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [this](std::size_t x, std::size_t y) {
      return all[x].wall_s * scale[x] < all[y].wall_s * scale[y];
    });
    idx.resize((idx.size() + 1) / 2);
    return idx;
  }
  [[nodiscard]] std::uint64_t quiet_items() const {
    std::uint64_t n = 0;
    for (const std::size_t i : quiet_half()) n += all[i].item_ms.size();
    return n;
  }
  /// Median of one scaled block time over the quieter half.
  [[nodiscard]] double quiet_median(double BlockResult::*f) const {
    std::vector<double> v;
    for (const std::size_t i : quiet_half()) v.push_back(all[i].*f * scale[i]);
    return median(std::move(v));
  }
  [[nodiscard]] std::vector<double> quiet_item_ms() const {
    std::vector<double> v;
    for (const std::size_t i : quiet_half()) {
      for (const double ms : all[i].item_ms) v.push_back(ms * scale[i]);
    }
    return v;
  }
};

/// Runs blocks until `seconds` have passed and the percentile rule allows
/// the `tail` percentile on the quieter half's items (0: no such need);
/// always at least one block. With `probe`, blocks take host-speed probes
/// between items; without, their scale is 1.
void run_for(Blocks& out, Workload w, std::uint64_t seed, double seconds,
             double tail, Tracing* tr, bool probe) {
  const auto t0 = Clock::now();
  do {
    if (tr != nullptr) tr->run = static_cast<int>(out.all.size());
    out.add(run_block(w, seed, /*tiny=*/false, tr, probe));
  } while (seconds_since(t0) < seconds || tail_percentile(out.quiet_items()) < tail);
}

/// Block times are medians over the quieter half; every block does the same
/// work, so the rates divide the per-block counts by those medians. Item
/// percentiles pool the quieter half's items.
std::map<std::string, double> end_to_end(const Blocks& bl) {
  const std::vector<double> item_ms = bl.quiet_item_ms();
  const BlockResult& first = bl.all.front();
  std::map<std::string, double> m;
  m["setup_s"] = bl.quiet_median(&BlockResult::setup_s);
  m["run_s"] = bl.quiet_median(&BlockResult::run_s);
  m["pdus_per_s"] = ratio(static_cast<double>(first.pdus), m["run_s"]);
  m["items_per_s"] = ratio(static_cast<double>(first.item_ms.size()),
                           bl.quiet_median(&BlockResult::wall_s));
  m["item_ms_p50"] = quantile(item_ms, 0.50);
  m["item_ms_p90"] = quantile(item_ms, 0.90);
  m["peak_rss_mb"] = peak_rss_mb();
  return m;
}

std::map<std::string, double> per_layer(Workload w, std::uint64_t seed,
                                        const Blocks& plain, const Blocks& traced,
                                        const SpanLog& log,
                                        const obs::PduSpans& pdu,
                                        const sim::Log2Histogram& steps,
                                        const std::vector<double>& send_ns) {
  const std::map<std::string, double>& s = plain.all.front().sim;
  const double run_s = plain.quiet_median(&BlockResult::run_s);
  const double run_traced_s = traced.quiet_median(&BlockResult::run_s);
  std::map<std::string, double> m;

  // Setup, from the traced spans and the kernel pass.
  std::map<std::string, double> span_ns, span_n;
  for (const Span& sp : log.spans()) {
    span_ns[sp.name] += static_cast<double>(sp.end_ns - sp.start_ns);
    span_n[sp.name] += 1;
  }
  const double nodes_per_build = w == Workload::kRxStream ? 1.0 : 2.0;
  m["osiris.node_build_ms"] =
      ratio(get(span_ns, "node_build"), get(span_n, "node_build") * nodes_per_build) / 1e6;
  m["osiris.path_setup_ms"] =
      ratio(get(span_ns, "path_setup"), get(span_n, "path_setup")) / 1e6;

  // sim
  const double events = get(s, "sim.events");
  const double reservations =
      get(s, "tc.bus.reservations") + get(s, "host.cpu.reservations") +
      get(s, "board.rx.i960.reservations") + get(s, "board.tx.i960.reservations") +
      get(s, "link.cells_sent");
  m["sim.events"] = events;
  m["sim.ns_per_event"] = ratio(run_s * 1e9, events);
  m["sim.step_ns_p50"] = steps.quantile(0.50);
  m["sim.step_ns_p99"] = steps.quantile(0.99);
  m["sim.boxed_events"] = get(s, "sim.boxed_events");
  m["sim.far_scheduled"] = get(s, "sim.far_scheduled");
  m["sim.cancelled"] = get(s, "sim.cancelled");
  m["sim.resource_reservations"] = reservations;

  // Resources: busy share of simulated time, mean wait per reservation.
  const double elapsed = get(s, "sim.elapsed_ps");
  auto busy_frac = [&](const std::string& r) { return ratio(get(s, r + ".busy_ps"), elapsed); };
  auto wait_us = [&](const std::string& r) {
    return ratio(get(s, r + ".wait_ps"), get(s, r + ".reservations")) / 1e6;
  };
  const double rx_cells = get(s, "board.rx.cells");
  const double tx_cells = get(s, "board.tx.cells");
  m["board.rx.cells"] = rx_cells;
  m["board.rx.dma_ops"] = get(s, "board.rx.dma_ops");
  m["board.rx.combine_frac"] = ratio(get(s, "board.rx.combined_dma_ops"), get(s, "board.rx.dma_ops"));
  m["board.rx.i960_busy_frac"] = busy_frac("board.rx.i960");
  m["board.rx.i960_wait_us"] = wait_us("board.rx.i960");
  m["board.rx.host_ns_per_cell"] = ratio(run_s * 1e9, rx_cells);
  m["board.tx.cells"] = tx_cells;
  m["board.tx.dma_ops"] = get(s, "board.tx.dma_ops");
  m["board.tx.dma_splits"] = get(s, "board.tx.dma_splits");
  m["board.tx.i960_busy_frac"] = busy_frac("board.tx.i960");
  m["tc.bus.reservations"] = get(s, "tc.bus.reservations");
  m["tc.bus.busy_frac"] = busy_frac("tc.bus");
  m["tc.bus.wait_us"] = wait_us("tc.bus");
  m["host.cpu.busy_frac"] = busy_frac("host.cpu");
  m["host.cpu.wait_us"] = wait_us("host.cpu");
  const double pdus_rx = get(s, "host.pdus_received");
  const double pdus_all = pdus_rx + get(s, "host.pdus_sent");
  m["host.interrupts_per_pdu"] = ratio(get(s, "host.interrupts"), pdus_rx);
  m["proto.send_us_p50"] = quantile(send_ns, 0.50) / 1e3;
  m["proto.send_us_p99"] = quantile(send_ns, 0.99) / 1e3;
  m["dpram.host_accesses_per_pdu"] = ratio(get(s, "dpram.host_accesses"), pdus_all);
  m["mem.cache_stale_reads"] = get(s, "mem.cache_stale_reads");
  m["link.cells_sent"] = get(s, "link.cells_sent");
  m["link.cells_lost"] = get(s, "link.cells_lost");
  for (const char* k : {"proto.arq_retransmissions", "proto.rpc_timeouts",
                        "chaos.faults_fired", "chaos.resets", "chaos.recovery_us_p50"}) {
    m[k] = get(s, k);
  }
  for (int st = 0; st < static_cast<int>(obs::Stage::kEndToEnd); ++st) {
    const auto stage = static_cast<obs::Stage>(st);
    m[std::string("span.stage_us_p50.") + obs::stage_name(stage)] =
        pdu.stage(stage).quantile(0.50) / 1e6;  // ticks are picoseconds
  }
  m["trace.overhead_frac"] = ratio(run_traced_s - run_s, run_s);
  m["paper_err_pct"] = paper_err_pct(plain.all.front().paper_points);

  // Kernel pass: ns/op on workload-shaped inputs, and ns/op x the block's
  // op count as an estimate of the layer's share of run_s.
  KernelShape shape;
  shape.msg_bytes = plain.all.front().msg_bytes;
  shape.vcis = static_cast<std::uint32_t>(get(s, "flow.occupancy"));
  shape.seed = seed;
  double depth = 1;
  for (const char* r : {"tc.bus", "host.cpu", "board.rx.i960", "board.tx.i960"}) {
    // Little's law: mean reservations in the calendar = (busy + wait) / time.
    depth = std::max(depth, std::ceil(ratio(get(s, std::string(r) + ".busy_ps") +
                                                get(s, std::string(r) + ".wait_ps"),
                                            elapsed)));
  }
  shape.calendar_depth = static_cast<std::uint32_t>(depth);
  const std::map<std::string, double> k = run_kernels(shape);
  m.insert(k.begin(), k.end());
  const double run_ns = run_s * 1e9;
  const double rx_kb = rx_cells * atm::kCellPayload / 1024.0;
  const double tx_kb = tx_cells * atm::kCellPayload / 1024.0;
  m["atm.crc32_run_share"] = ratio(get(k, "atm.crc32_ns_per_kb") * (rx_kb + tx_kb), run_ns);
  m["atm.segment_run_share"] = ratio(get(k, "atm.segment_ns_per_cell") * tx_cells, run_ns);
  m["atm.reassemble_run_share"] = ratio(get(k, "atm.reassemble_ns_per_cell") * rx_cells, run_ns);
  m["mem.dma_write_run_share"] = ratio(get(k, "mem.dma_write_ns_per_kb") * rx_kb, run_ns);
  m["flow.find_run_share"] = ratio(get(k, "flow.find_ns") * rx_cells, run_ns);
  m["sim.resource_reserve_run_share"] = ratio(get(k, "sim.resource_reserve_ns") * reservations, run_ns);
  m["dpram.queue_op_run_share"] = ratio(get(k, "dpram.queue_op_ns") * pdus_all, run_ns);

  // The ledger: where the traced run's wall time went, by span self time.
  const std::map<std::string, double> self = log.self_ns_by_name();
  double total_self = 0;
  for (const auto& [name, ns] : self) total_self += ns;
  const double setup_self = get(self, "node_build") + get(self, "stack_setup") +
                            get(self, "path_setup") + get(self, "input_setup");
  const double run_self = get(self, "run") + get(self, "run_schedule");
  m["ledger.setup_self_frac"] = ratio(setup_self, total_self);
  m["ledger.run_self_frac"] = ratio(run_self, total_self);
  m["ledger.sink_self_frac"] = ratio(get(self, "sink"), total_self);
  m["ledger.send_self_frac"] = ratio(get(self, "send"), total_self);
  m["ledger.item_self_frac"] = ratio(get(self, "item"), total_self);
  return m;
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf("\"%s\":{", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), std::isfinite(value) ? value : 0.0);
    sep = ",";
  }
  std::printf("}");
}

/// `metrics` are the reported figures; `raw` repeats the end-to-end times
/// unscaled (empty on traced runs, which are not scaled).
void print_report(const Args& a, const HostFacts& h, const Blocks& bl,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& metrics,
                  const std::map<std::string, double>& raw) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace);
  std::printf("\"host\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"sanitize\":\"%s\",\"optimized\":%s},",
              h.nproc, h.compiler.c_str(), h.build_type.c_str(), h.sanitize.c_str(),
              h.optimized ? "true" : "false");
  const BlockResult& first = bl.all.front();
  std::printf("\"blocks\":%zu,\"attempted\":%llu,\"failed\":%llu,"
              "\"fingerprint\":\"%016llx\",\"paper_err_pct\":%.17g,\"host_scale\":%.17g,",
              bl.all.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(first.fingerprint),
              paper_err_pct(first.paper_points), median(bl.scale));
  print_map("metrics", metrics);
  std::printf(",");
  print_map("raw", raw);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <rx_stream|tx_stream|pingpong|chaos>"
                 " --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  const std::optional<Workload> w = parse_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const HostFacts host;
  if (!timings_allowed(host)) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build (sanitize='%s', optimized=%d)\n",
                 host.build_type.c_str(), host.sanitize.c_str(), host.optimized);
    return 3;
  }

  if (a.trace == 0) {
    Blocks bl;
    run_for(bl, *w, a.seed, a.seconds, kReportedTail, nullptr, /*probe=*/true);
    print_report(a, host, bl, bl.items, bl.failed, end_to_end(bl),
                 end_to_end(bl.unscaled()));
    return 0;
  }

  Blocks plain, traced;
  run_for(plain, *w, a.seed, a.seconds / 2, 0, nullptr, /*probe=*/false);
  SpanLog log;
  obs::PduSpans pdu;
  sim::Log2Histogram steps;
  std::vector<double> send_ns;
  Tracing tr{&log, &pdu, &steps, &send_ns, 0};
  run_for(traced, *w, a.seed, a.seconds / 2, 0, &tr, /*probe=*/false);
  // Tracing must not perturb the simulation: traced blocks reproduce the
  // untraced fingerprint.
  const std::uint64_t attempted = plain.items + traced.items;
  std::uint64_t failed = plain.failed + traced.failed;
  if (traced.all.front().fingerprint != plain.all.front().fingerprint) {
    failed = std::min(attempted, failed + traced.items);
  }
  if (!a.spans_out.empty() && !log.write_json(a.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_out.c_str());
    return 1;
  }
  print_report(a, host, plain, attempted, failed,
               per_layer(*w, a.seed, plain, traced, log, pdu, steps, send_ns), {});
  return 0;
}
