#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_percentile(std::uint64_t n) {
  for (const double p : {99.9, 99.0, 90.0}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100), computed
    // in per-mille integers so 99.9 does not round the wrong way.
    const auto beyond_permille =
        static_cast<std::uint64_t>(std::llround(1000.0 - p * 10.0));
    if (n * beyond_permille >= 10 * 1000) return p;
  }
  return 0.0;
}

double paper_err_pct(const std::vector<std::pair<double, double>>& points) {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [sim, paper] : points) {
    if (paper == 0.0) throw std::invalid_argument("paper_err_pct: paper value 0");
    sum += std::fabs(sim - paper) / std::fabs(paper);
  }
  return 100.0 * sum / static_cast<double>(points.size());
}

namespace {
volatile std::uint64_t g_probe_sink = 0;
}  // namespace

double host_probe_seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  std::map<std::uint64_t, std::uint64_t> tree;
  std::vector<std::uint64_t> table(std::size_t{1} << 16);
  std::uint64_t x = 88172645463325252ULL, acc = 0;
  for (int i = 0; i < 25000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tree[x & 4095] += x;
    if (tree.size() > 2048) tree.erase(tree.begin());
    table[x & 0xFFFF] += acc;
    acc += table[(x >> 20) & 0xFFFF];
  }
  g_probe_sink = acc + tree.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void Fingerprint::add(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (x >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add_double(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

int SpanLog::open(std::string name, int run) {
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  s.end_ns = s.start_ns;
  s.run = run;
  const int idx = add(std::move(s));
  open_.push_back(idx);
  return idx;
}

void SpanLog::close(int idx) {
  if (open_.empty() || open_.back() != idx) {
    throw std::logic_error("SpanLog::close: span is not the innermost open one");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(idx)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
}

int SpanLog::add(Span s) {
  if (s.parent < 0 && !open_.empty()) s.parent = open_.back();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::self_ns_by_name() const {
  // Children of one span never overlap (one thread, strictly nested), but a
  // child is clipped to its parent's interval so a malformed import cannot
  // drive self time below zero.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += static_cast<double>(hi - lo);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = static_cast<double>(s.end_ns - s.start_ns) - covered[i];
    out[s.name] += std::max(0.0, self);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                    "\"parent\":%d,\"run\":%d}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
