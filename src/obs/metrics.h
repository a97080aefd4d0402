// Metrics registry: named counters, gauges and log2-bucketed histograms.
//
// The registry is a *naming* layer, not a storage layer: hot paths keep
// owning their own counters (a `++member_` stays a `++member_`), and the
// registry holds readers it calls only at snapshot() time: exact uint64
// counter readers, double gauges, and histograms owned elsewhere (e.g.
// PduSpans stages).  One registry can name a whole testbed: prefix each
// node's names ("a.", "b.").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace osiris::obs {

/// Point-in-time rendering of a Registry.
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

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers a pull-model counter: `read` is called at snapshot time,
  /// and whatever it reads must outlive the registry.  Re-registering a
  /// name replaces it (likewise for gauges and histograms).
  void counter(std::string name, std::function<std::uint64_t()> read);

  /// Registers a computed gauge (evaluated at snapshot time).
  void gauge(std::string name, std::function<double()> fn);

  /// Registers a histogram owned elsewhere; it must outlive the registry.
  void histogram_ref(std::string name, const sim::Log2Histogram* h,
                     std::string unit = "ticks");

  /// Reads every instrument, sorted by name.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct HistRef {
    const sim::Log2Histogram* source;
    std::string unit;
  };
  // Keyed by name, so a snapshot comes out sorted and diffable across runs
  // regardless of registration order.
  std::map<std::string, std::function<std::uint64_t()>> counters_;
  std::map<std::string, std::function<double()>> gauges_;
  std::map<std::string, HistRef> hists_;
};

}  // namespace osiris::obs
