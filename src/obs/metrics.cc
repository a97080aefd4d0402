#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

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

template <typename Entry>
auto find_value(const std::vector<Entry>& entries, const std::string& name,
                const char* kind) {
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&name](const Entry& e) { return e.name == name; });
  if (it == entries.end()) {
    throw std::out_of_range(std::string("obs::Snapshot: no ") + kind + " named '" +
                            name + "'");
  }
  return it->value;
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

void Snapshot::sort_by_name() {
  const auto by_name = [](const auto& x, const auto& y) { return x.name < y.name; };
  std::sort(counters.begin(), counters.end(), by_name);
  std::sort(gauges.begin(), gauges.end(), by_name);
  std::sort(hists.begin(), hists.end(), by_name);
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  return find_value(counters, name, "counter");
}

double Snapshot::gauge(const std::string& name) const {
  return find_value(gauges, name, "gauge");
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

}  // namespace osiris::obs
