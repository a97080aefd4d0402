// Metrics registry: named counters, gauges and log2-bucketed histograms.
//
// The registry is a *naming* layer, not a storage layer: hot paths keep
// owning their own counters (a `++member_` stays a `++member_`), and the
// registry holds pointers it reads only at snapshot() time.  Histograms can
// either be owned by the registry (histogram() returns a stable pointer the
// caller records into, allocation-free) or referenced (histogram_ref(), for
// histograms owned elsewhere, e.g. PduSpans stages).  One registry can name
// a whole testbed: prefix each node's names ("a.", "b.").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

  /// Registers a pull-model counter: the pointee is read at snapshot time
  /// and must outlive the registry.  Re-registering a name replaces it.
  void counter(std::string name, const std::uint64_t* source);

  /// Registers a computed gauge (evaluated at snapshot time).
  void gauge(std::string name, std::function<double()> fn);

  /// Creates (or finds) a registry-owned histogram; the returned pointer is
  /// stable for the registry's lifetime and is what hot paths record into.
  sim::Log2Histogram* histogram(std::string name, std::string unit = "ticks");

  /// Registers a histogram owned elsewhere; it must outlive the registry.
  void histogram_ref(std::string name, const sim::Log2Histogram* h,
                     std::string unit = "ticks");

  /// Reads every instrument, sorted by name.  Histograms registered twice
  /// under one name (owned and referenced) are merged bucket-wise.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct CounterEntry {
    std::string name;
    const std::uint64_t* source;
  };
  struct GaugeEntry {
    std::string name;
    std::function<double()> fn;
  };
  struct HistEntry {
    std::string name;
    std::string unit;
    const sim::Log2Histogram* source;       // set for refs
    std::unique_ptr<sim::Log2Histogram> owned;  // set for owned
    [[nodiscard]] const sim::Log2Histogram& get() const {
      return owned ? *owned : *source;
    }
  };
  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistEntry> hists_;
};

}  // namespace osiris::obs
