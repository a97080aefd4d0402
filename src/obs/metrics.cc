#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace osiris::obs {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Snapshot::Hist summarize(const std::string& name, const std::string& unit,
                         const sim::Log2Histogram& h) {
  Snapshot::Hist out;
  out.name = name;
  out.unit = unit;
  out.count = h.count();
  out.min = h.min();
  out.max = h.max();
  out.sum = h.sum();
  out.mean = h.mean();
  out.p50 = h.quantile(0.50);
  out.p90 = h.quantile(0.90);
  out.p99 = h.quantile(0.99);
  out.p999 = h.quantile(0.999);
  return out;
}

std::string Snapshot::to_text() const {
  std::ostringstream os;
  std::size_t w = 0;
  for (const auto& c : counters) w = std::max(w, c.name.size());
  for (const auto& g : gauges) w = std::max(w, g.name.size());
  for (const auto& h : hists) w = std::max(w, h.name.size());
  const int width = static_cast<int>(w);
  for (const auto& c : counters) {
    os << "  ";
    os.width(width);
    os << std::left << c.name << "  " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    os << "  ";
    os.width(width);
    os << std::left << g.name << "  " << g.value << "\n";
  }
  for (const auto& h : hists) {
    os << "  ";
    os.width(width);
    os << std::left << h.name << "  n=" << h.count;
    if (h.count > 0) {
      os << " p50=" << h.p50 << " p90=" << h.p90 << " p99=" << h.p99
         << " p999=" << h.p999 << " max=" << h.max << " " << h.unit;
    }
    os << "\n";
  }
  return os.str();
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(counters[i].name)
       << "\": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(gauges[i].name)
       << "\": " << gauges[i].value;
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const Hist& h = hists[i];
    os << (i ? "," : "") << "\n    \"" << json_escape(h.name) << "\": {"
       << "\"unit\": \"" << json_escape(h.unit) << "\", "
       << "\"count\": " << h.count << ", \"min\": " << h.min
       << ", \"max\": " << h.max << ", \"sum\": " << h.sum
       << ", \"mean\": " << h.mean << ", \"p50\": " << h.p50
       << ", \"p90\": " << h.p90 << ", \"p99\": " << h.p99
       << ", \"p999\": " << h.p999 << "}";
  }
  os << (hists.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void Registry::counter(std::string name, const std::uint64_t* source) {
  for (auto& e : counters_) {
    if (e.name == name) {
      e.source = source;
      return;
    }
  }
  counters_.push_back({std::move(name), source});
}

void Registry::gauge(std::string name, std::function<double()> fn) {
  for (auto& e : gauges_) {
    if (e.name == name) {
      e.fn = std::move(fn);
      return;
    }
  }
  gauges_.push_back({std::move(name), std::move(fn)});
}

sim::Log2Histogram* Registry::histogram(std::string name, std::string unit) {
  for (auto& e : hists_) {
    if (e.name == name && e.owned) return e.owned.get();
  }
  HistEntry e;
  e.name = std::move(name);
  e.unit = std::move(unit);
  e.source = nullptr;
  e.owned = std::make_unique<sim::Log2Histogram>();
  hists_.push_back(std::move(e));
  return hists_.back().owned.get();
}

void Registry::histogram_ref(std::string name, const sim::Log2Histogram* h,
                             std::string unit) {
  for (auto& e : hists_) {
    if (e.name == name) {
      e.source = h;
      e.owned.reset();
      e.unit = std::move(unit);
      return;
    }
  }
  HistEntry e;
  e.name = std::move(name);
  e.unit = std::move(unit);
  e.source = h;
  hists_.push_back(std::move(e));
}

Snapshot Registry::snapshot() const {
  // std::map keeps the output sorted by name, which makes snapshots
  // diffable across runs regardless of registration order.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct MergedHist {
    std::string unit;
    sim::Log2Histogram h;
  };
  std::map<std::string, MergedHist> hists;
  for (const auto& c : counters_) counters[c.name] = *c.source;
  for (const auto& g : gauges_) gauges[g.name] = g.fn ? g.fn() : 0.0;
  for (const auto& h : hists_) {
    auto& m = hists[h.name];
    if (m.unit.empty()) m.unit = h.unit;
    m.h.merge(h.get());
  }
  Snapshot out;
  out.counters.reserve(counters.size());
  for (const auto& [name, v] : counters) out.counters.push_back({name, v});
  out.gauges.reserve(gauges.size());
  for (const auto& [name, v] : gauges) out.gauges.push_back({name, v});
  out.hists.reserve(hists.size());
  for (const auto& [name, m] : hists) {
    out.hists.push_back(summarize(name, m.unit, m.h));
  }
  return out;
}

}  // namespace osiris::obs
