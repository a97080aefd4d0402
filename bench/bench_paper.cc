// Reproduces every table, figure and in-text measurement of the paper,
// then runs the four robustness experiments (bench/experiments.h). Prints
// each experiment as a grid, series down and x across, with the paper's
// value on the line below a series wherever the paper gives one, and
// writes BENCH_<experiment>.json: the rows plus the standard
// perf-trajectory fields (benchjson::perf_fields), in which node and
// testbed builds count as setup. EXPERIMENTS.md discusses the results.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "experiments.h"

namespace {

using osiris::experiments::Experiment;
using osiris::experiments::Row;

std::string num(double v) {
  if (std::isnan(v)) return "";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void print(const Experiment& e) {
  std::vector<double> xs;
  std::vector<std::string> series;
  for (const Row& r : e.rows) {
    if (std::find(xs.begin(), xs.end(), r.x) == xs.end()) xs.push_back(r.x);
    if (std::find(series.begin(), series.end(), r.series) == series.end()) {
      series.push_back(r.series);
    }
  }
  std::vector<std::vector<std::string>> lines{{e.x_label}};
  for (const double x : xs) lines[0].push_back(num(x));
  for (const std::string& s : series) {
    std::vector<std::string> measured{s};
    std::vector<std::string> paper{"  paper"};
    bool has_paper = false;
    for (const double x : xs) {
      const auto it = std::find_if(e.rows.begin(), e.rows.end(), [&](const Row& r) {
        return r.series == s && r.x == x;
      });
      measured.push_back(it == e.rows.end() ? "" : num(it->measured));
      paper.push_back(it == e.rows.end() ? "" : num(it->paper));
      has_paper = has_paper || !paper.back().empty();
    }
    lines.push_back(measured);
    if (has_paper) lines.push_back(paper);
  }
  std::vector<std::size_t> width(lines[0].size(), 0);
  for (const auto& line : lines) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      width[i] = std::max(width[i], line[i].size());
    }
  }
  std::printf("\n== %s: %s\n", e.name.c_str(), e.title.c_str());
  for (const auto& line : lines) {
    std::printf("%-*s", static_cast<int>(width[0]), line[0].c_str());
    for (std::size_t i = 1; i < line.size(); ++i) {
      std::printf("  %*s", static_cast<int>(width[i]), line[i].c_str());
    }
    std::printf("\n");
  }
}

bool write_json(const Experiment& e) {
  benchjson::Writer w;
  w.open_object();
  w.field("title", e.title);
  w.field("x_label", e.x_label);
  w.open_array("rows");
  for (const Row& r : e.rows) {
    w.open_object();
    w.field("series", r.series);
    w.field("x", r.x);
    w.field("measured", r.measured);
    if (!std::isnan(r.paper)) w.field("paper", r.paper);
    w.close_object();
  }
  w.close_array();
  if (const auto& lat = e.pdu_latency) {
    w.open_object("pdu_latency");
    w.field("pdus", lat->pdus);
    w.field("e2e_us_p50", lat->e2e_us_p50);
    w.field("e2e_us_p90", lat->e2e_us_p90);
    w.field("e2e_us_p99", lat->e2e_us_p99);
    w.field("e2e_us_p999", lat->e2e_us_p999);
    w.open_object("stage_us_p50");
    for (const auto& [stage, us] : lat->stage_us_p50) w.field(stage, us);
    w.close_object();
    w.close_object();
  }
  benchjson::perf_fields(w, e.setup_seconds, e.run_seconds, e.engine_events,
                         e.sim_seconds);
  w.close_object();
  return w.dump(e.name);
}

}  // namespace

int main() {
  bool ok = true;
  for (const auto run : osiris::experiments::kAll) {
    const Experiment e = run();
    print(e);
    ok = write_json(e) && ok;
  }
  return ok ? 0 : 1;
}
