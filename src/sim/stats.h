// Lightweight statistics accumulators used throughout the simulator.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace osiris::sim {

/// Running mean / min / max / stddev over double-valued samples.
class Summary {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    sum2_ += v * v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  [[nodiscard]] double min() const { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }

  [[nodiscard]] double variance() const {
    if (n_ < 2) return 0.0;
    const double m = mean();
    const double v = sum2_ / static_cast<double>(n_) - m * m;
    return v > 0.0 ? v : 0.0;
  }

  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = Summary{}; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double sum2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log2-bucketed histogram over unsigned 64-bit samples.
///
/// Bucket b holds samples whose bit_width is b (bucket 0 = the value 0,
/// bucket b >= 1 = [2^(b-1), 2^b)).  Recording is branch-light and
/// allocation-free — an array index plus four scalar updates — which makes
/// it safe on simulation hot paths.  Quantiles interpolate linearly inside
/// the containing bucket and are clamped to the observed [min, max], so
/// small-count histograms do not report values never seen.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(uint64) in [0, 64]

  void record(std::uint64_t v) {
    ++counts_[static_cast<std::size_t>(std::bit_width(v))];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }

  /// Approximate quantile, q in [0, 1]; linear interpolation within the
  /// containing power-of-two bucket, clamped to [min, max].
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    if (count_ == 1) return static_cast<double>(min_);
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      const auto here = static_cast<double>(counts_[b]);
      if (target < static_cast<double>(seen) + here) {
        double lo = 0.0, hi = 1.0;
        if (b >= 1) {
          lo = static_cast<double>(std::uint64_t{1} << (b - 1));
          hi = b >= 64 ? static_cast<double>(max_)
                       : static_cast<double>(std::uint64_t{1} << b);
        }
        const double frac = (target - static_cast<double>(seen)) / here;
        const double v = lo + frac * (hi - lo);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += counts_[b];
    }
    return static_cast<double>(max_);
  }

  /// Folds `other` into this histogram (e.g. one node's spans into another's).
  void merge(const Log2Histogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void reset() { *this = Log2Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace osiris::sim
