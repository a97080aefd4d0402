// Machine-readable bench output: each robustness bench appends its rows to
// a BENCH_<name>.json file in the working directory so CI (and plots) can
// consume results without scraping the human tables. Deliberately tiny —
// the benches only need objects/arrays of numbers and booleans.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace benchjson {

/// Wall-clock stopwatch for the standard perf-trajectory fields.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Exact quantile of `v` (copied, sorted), q in [0, 1]. 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

class Writer;

/// The standard perf-trajectory fields every bench emits, so
/// tools/bench_trend.py can fold all BENCH_*.json files into one table:
/// setup_seconds (building testbeds and nodes), run_seconds (everything
/// else), wall_seconds (their sum), engine_events, and events_per_sec
/// (events / run_seconds, so it measures the simulator, not the builds).
void perf_fields(Writer& w, double setup_seconds, double run_seconds,
                 std::uint64_t events);

/// Incremental JSON builder; the caller supplies structure via the
/// open/close calls and the builder handles commas.
class Writer {
 public:
  void open_object() { sep(); out_ += '{'; fresh_ = true; }
  void open_object(const std::string& key) {
    sep();
    out_ += '"' + key + "\":{";
    fresh_ = true;
  }
  void close_object() { out_ += '}'; fresh_ = false; }
  void open_array(const std::string& key) {
    sep();
    out_ += '"' + key + "\":[";
    fresh_ = true;
  }
  void close_array() { out_ += ']'; fresh_ = false; }

  void field(const std::string& key, double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%.6g", key.c_str(), v);
    out_ += buf;
  }
  void field(const std::string& key, std::uint64_t v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%llu", key.c_str(),
                  static_cast<unsigned long long>(v));
    out_ += buf;
  }
  void field(const std::string& key, bool v) {
    sep();
    out_ += '"' + key + "\":" + (v ? "true" : "false");
  }
  void field(const std::string& key, const std::string& v) {
    sep();
    out_ += '"' + key + "\":\"" + v + '"';
  }

  /// Writes the accumulated document to BENCH_<name>.json.
  bool dump(const std::string& name) const {
    const std::string path = "BENCH_" + name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs(out_.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), out_.size() + 1);
    return true;
  }

 private:
  void sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

inline void perf_fields(Writer& w, double setup_seconds, double run_seconds,
                        std::uint64_t events) {
  w.field("setup_seconds", setup_seconds);
  w.field("run_seconds", run_seconds);
  w.field("wall_seconds", setup_seconds + run_seconds);
  w.field("engine_events", events);
  w.field("events_per_sec",
          run_seconds > 0 ? static_cast<double>(events) / run_seconds : 0.0);
}

}  // namespace benchjson
