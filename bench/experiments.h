// Every experiment of the paper, defined once: Table 1, Figures 2-4 and
// the in-text measurements of §2-§4, then four robustness experiments that
// measure the paper's layering and protection claims under faults and
// overload. Each function builds its own nodes and testbeds, runs, and
// returns typed rows of measured-vs-paper values. bench_paper prints the
// rows and writes them to BENCH_<name>.json; tests/test_calibration.cc
// pins every row.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace osiris::experiments {

/// Paper value of a row for which the paper gives no number.
inline constexpr double kNoPaper = std::numeric_limits<double>::quiet_NaN();

/// One reproduced number: `measured` at point `x` of `series`, beside the
/// paper's value for the same point. A `<config>.delivered` series holds
/// the share of offered messages a run delivered: a point below 1 is the
/// goodput of a run that lost messages.
struct Row {
  std::string series;
  double x = 0;
  double measured = 0;
  double paper = kNoPaper;
};

/// Table 1's span-instrumented ping-pong (raw ATM, 1024 B, 5000/200):
/// PDU latency percentiles and per-stage medians in us, both nodes merged.
struct PduLatency {
  std::uint64_t pdus = 0;
  double e2e_us_p50 = 0, e2e_us_p90 = 0, e2e_us_p99 = 0, e2e_us_p999 = 0;
  std::vector<std::pair<std::string, double>> stage_us_p50;
};

struct Experiment {
  std::string name;     // BENCH_<name>.json, and the key of its pins
  std::string title;    // what is measured, and in which unit
  std::string x_label;  // what x is
  std::vector<Row> rows;
  std::optional<PduLatency> pdu_latency;  // table1_latency only
  double setup_seconds = 0;  // wall time spent building nodes and testbeds
  double run_seconds = 0;    // the rest of the experiment's wall time
  std::uint64_t engine_events = 0;
  double sim_seconds = 0;  // simulated time the runs covered, summed

  void add(std::string series, double x, double measured,
           double paper = kNoPaper);
  /// The row at (`series`, `x`); throws std::out_of_range if there is none.
  [[nodiscard]] const Row& at(const std::string& series, double x) const;
};

Experiment table1_latency();     // Table 1: round-trip latency (us)
Experiment fig2_receive_5000();  // Figure 2: 5000/200 receive (Mbps)
Experiment fig3_receive_3000();  // Figure 3: 3000/600 receive (Mbps)
Experiment fig4_transmit();      // Figure 4: transmit (Mbps)
Experiment dma_length();         // §2.5.1 and §4: DMA transaction length
Experiment interrupts();         // §2.1.2: interrupts per PDU
Experiment lockfree();           // §2.1.1: lock-free vs spin-lock queues
Experiment fragmentation();      // §2.2: physical buffers per message
Experiment cache();              // §2.3: lazy vs eager invalidation
Experiment skew();               // §2.6: striping skew vs combining
Experiment dma_vs_pio();         // §2.7: DMA vs PIO by application access
Experiment fbuf();               // §3.1: cached vs uncached fbufs
Experiment adc();                // §3.2/§4: ADC vs kernel latency
Experiment fixed_dma();          // §2.5.2: fixed-length DMA
Experiment wiring();             // §2.4: page wiring
Experiment priority();           // §3.1: per-path shedding under overload

// Robustness: no paper values (every row has paper = kNoPaper).
Experiment fault();          // §1: ARQ goodput vs wire cell loss
Experiment adc_isolation();  // §3.2: tenants beside an adversarial ADC
Experiment qos();            // per-VCI DRR fairness under incast
Experiment chaos();          // 12 seeded chaos schedules

/// All 20, in the order bench_paper runs them: the paper's 16, then the
/// four robustness experiments.
inline constexpr Experiment (*const kAll[])() = {
    table1_latency, fig2_receive_5000, fig3_receive_3000, fig4_transmit,
    dma_length,     interrupts,        lockfree,          fragmentation,
    cache,          skew,              dma_vs_pio,        fbuf,
    adc,            fixed_dma,         wiring,            priority,
    fault,          adc_isolation,     qos,               chaos};

}  // namespace osiris::experiments
