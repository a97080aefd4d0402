// Metrics snapshot: named counters, gauges and log2-bucketed histograms,
// read at one point in time.
//
// A snapshot is a *rendering*, not a storage layer: hot paths keep owning
// their own counters (a `++member_` stays a `++member_`), and a reader such
// as osiris::stats() copies them out when asked: exact uint64 counters,
// double gauges, and summaries of histograms owned elsewhere (e.g. PduSpans
// stages).  One snapshot can cover a whole testbed: prefix each node's
// names ("a.", "b.").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace osiris::obs {

/// Point-in-time rendering of named instruments.
struct Snapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0;
  };
  struct Hist {
    std::string name;
    std::string unit;
    std::uint64_t count = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double p999 = 0;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Hist> hists;

  /// Sorts each section by name, so a rendering is diffable across runs
  /// whatever order its pieces were added in.
  void sort_by_name();

  /// The named counter's or gauge's value. Both throw std::out_of_range on
  /// an unknown name, so a misspelt name fails loudly.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;

  /// Aligned human-readable table.
  [[nodiscard]] std::string to_text() const;
  /// Single JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;
};

/// Fills a Snapshot::Hist's derived fields from a histogram.
Snapshot::Hist summarize(const std::string& name, const std::string& unit,
                         const sim::Log2Histogram& h);

}  // namespace osiris::obs
