// Statistics and the wall-clock span ledger perfbench reports with.
//
// Everything here is host-side bookkeeping of the benchmark itself: it never
// looks inside the simulator. Spans are recorded only around the calls the
// benchmark makes into a layer (constructors, path setup, send, run, sink
// callbacks, run_schedule), kept in memory, and written out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile of `v` with linear interpolation between closest ranks,
/// q in [0, 1]. 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// The percentile rule: the highest of p90, p99 and p99.9 that still has at
/// least ten of `n` samples beyond it, as a percentage (90, 99, 99.9); 0 when
/// not even p90 qualifies (fewer than 100 samples). The median is always
/// reported.
double tail_percentile(std::uint64_t n);

/// Mean of |simulated - paper| / paper over the points, in percent.
/// Points are (simulated, paper) pairs; paper values must be non-zero.
double paper_err_pct(const std::vector<std::pair<double, double>>& points);

/// Host-speed probe: wall seconds of a fixed kernel (std::map churn and a
/// 512 KB table walk) that calls no simulator code, so no simulator change
/// can move it. About 3 ms on one core of a shared 2.1 GHz Xeon VM.
double host_probe_seconds();

/// FNV-1a over 64-bit words: the block fingerprint.
class Fingerprint {
 public:
  void add(std::uint64_t x);
  void add_double(double x);  // exact bit pattern
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// One wall-clock span: name, start and end (ns since the log's epoch), the
/// enclosing span's index (-1 at top level), and the block ("run id").
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span log with a stack of open spans (single thread).
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span now; its parent is the innermost open span.
  int open(std::string name, int run);
  /// Closes span `idx` now (it must be the innermost open span).
  void close(int idx);
  /// Appends an already-closed span with explicit times (tests, imports).
  int add(Span s);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in ns: each span's duration minus the part
  /// of it covered by its direct children, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ns_by_name() const;

  /// Writes the spans as one JSON array. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a no-op when
/// `log` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int run)
      : log_(log), idx_(log != nullptr ? log->open(name, run) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

}  // namespace perfbench
