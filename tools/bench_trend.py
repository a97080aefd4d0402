#!/usr/bin/env python3
"""Fold BENCH_*.json perf fields into a single trend table.

Every throughput-style bench emits the common perf-trajectory fields
(wall_seconds, engine_events, events_per_sec) via benchjson::perf_fields.
This script sweeps one or more directories (or explicit files) for
BENCH_*.json, prints an aligned table of those fields, and optionally
appends the rows to a TSV history file so successive CI runs accumulate a
perf trend over commits.

Usage:
    tools/bench_trend.py [paths...] [--append FILE] [--label LABEL]
                         [--floors FILE] [--html FILE]

Paths default to build/bench and build.  Files without the perf fields
(e.g. the robustness benches, which report goodput/latency rows instead)
are listed with dashes, not errors.
Exits nonzero only if no BENCH_*.json file is found at all.

--floors generalizes the old single-bench engine_events_per_sec.floor: the
file (bench/floors.tsv) holds one row per gated metric —

    bench <TAB> field <TAB> floor <TAB> slack <TAB> kind

`bench` names BENCH_<bench>.json, `field` a top-level numeric field in it,
and the check is  value >= floor * slack  (slack < 1 is the haircut that
absorbs machine-to-machine noise).  kind=perf rows are skipped when
OSIRIS_SANITIZE is set (sanitized binaries are legitimately slower);
kind=quality rows — fairness indices, goodput retention — always apply.
Any violated or uncheckable floor makes the script exit nonzero.

--html renders a self-contained dashboard (inline SVG, no dependencies):
the events/sec trajectory of every bench series across the accumulated
--append history with floor lines and violation markers, the latest PDU
latency percentiles and per-stage medians from BENCH_table1_latency.json,
the demultiplexing sweep from BENCH_demux.json and the quality gates.
Writing the dashboard never affects the exit status; only --floors gates.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import time


def find_bench_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(os.path.join(p, "BENCH_*.json"))))
        elif os.path.isfile(p):
            files.append(p)
    # De-duplicate while preserving order (a file may match twice via
    # overlapping path arguments).
    seen = set()
    out = []
    for f in files:
        key = os.path.abspath(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def load_rows(files):
    rows = []
    for path in files:
        name = os.path.basename(path)
        if name.startswith("BENCH_"):
            name = name[len("BENCH_"):]
        if name.endswith(".json"):
            name = name[: -len(".json")]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            rows.append({"bench": name, "error": str(exc)})
            continue
        rows.append({
            "bench": name,
            "wall_seconds": data.get("wall_seconds"),
            "engine_events": data.get("engine_events"),
            "events_per_sec": data.get("events_per_sec"),
        })
    return rows


def fmt(value, spec):
    if value is None:
        return "-"
    try:
        return spec % value
    except TypeError:
        return str(value)


def print_table(rows):
    header = ("bench", "wall_s", "events", "events/sec")
    widths = [max(len(header[0]), max((len(r["bench"]) for r in rows), default=0)),
              9, 12, 13]
    line = "%-*s  %*s  %*s  %*s"
    print(line % (widths[0], header[0], widths[1], header[1], widths[2],
                  header[2], widths[3], header[3]))
    for r in rows:
        if "error" in r:
            print("%-*s  unreadable: %s" % (widths[0], r["bench"], r["error"]))
            continue
        print(line % (
            widths[0], r["bench"],
            widths[1], fmt(r["wall_seconds"], "%.3f"),
            widths[2], fmt(r["engine_events"], "%d"),
            widths[3], fmt(r["events_per_sec"], "%.0f"),
        ))


def load_floors(path):
    """Parses the floors TSV into a list of dicts; raises ValueError on a
    malformed row so a typo in the gate file fails loudly, not silently."""
    floors = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if parts[0] == "bench":  # column header
                continue
            if len(parts) != 5:
                raise ValueError("%s:%d: want 5 tab-separated columns, got %d"
                                 % (path, lineno, len(parts)))
            bench, field, floor, slack, kind = parts
            if kind not in ("perf", "quality", "perf_ceiling",
                            "quality_ceiling"):
                raise ValueError(
                    "%s:%d: kind must be perf|quality|perf_ceiling|"
                    "quality_ceiling, got %r" % (path, lineno, kind))
            floors.append({
                "bench": bench,
                "field": field,
                "floor": float(floor),
                "slack": float(slack),
                "kind": kind,
            })
    return floors


def check_floors(files, floors):
    """Checks each floor row against its bench's JSON.  Returns the number
    of violations (missing file/field counts as one — a gate that cannot
    run must not pass)."""
    data_by_bench = {}
    for path in files:
        name = os.path.basename(path)
        if name.startswith("BENCH_") and name.endswith(".json"):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data_by_bench[name[len("BENCH_"):-len(".json")]] = \
                        json.load(fh)
            except (OSError, ValueError):
                pass  # already reported as unreadable in the trend table
    sanitized = bool(os.environ.get("OSIRIS_SANITIZE"))
    failures = 0
    for fl in floors:
        tag = "%s.%s" % (fl["bench"], fl["field"])
        kind = fl["kind"]
        ceiling = kind.endswith("_ceiling")
        if kind.startswith("perf") and sanitized:
            print("floor SKIP %-32s (perf gate, OSIRIS_SANITIZE set)" % tag)
            continue
        data = data_by_bench.get(fl["bench"])
        value = data.get(fl["field"]) if isinstance(data, dict) else None
        cut = fl["floor"] * fl["slack"]
        rel = "<=" if ceiling else ">="
        if not isinstance(value, (int, float)):
            print("floor FAIL %-32s missing (want %s %g)" % (tag, rel, cut))
            failures += 1
        elif (value > cut) if ceiling else (value < cut):
            print("floor FAIL %-32s %g not %s %g (bound %g x slack %g)"
                  % (tag, value, rel, cut, fl["floor"], fl["slack"]))
            failures += 1
        else:
            print("floor ok   %-32s %g %s %g" % (tag, value, rel, cut))
    return failures


def run_label():
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return "%s@%s" % (rev, time.strftime("%Y-%m-%dT%H:%M:%S"))


HISTORY_COLUMNS = ("run", "bench", "wall_seconds", "engine_events",
                   "events_per_sec")


def append_history(rows, path, label):
    # Rows follow the file's own header, so a history written with older
    # columns (threads, speedup, stall) keeps growing consistently; columns
    # a row lacks are written as "-".
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    columns = HISTORY_COLUMNS
    if not fresh:
        with open(path, "r", encoding="utf-8") as fh:
            columns = fh.readline().rstrip("\n").split("\t")
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write("\t".join(columns) + "\n")
        for r in rows:
            if "error" in r or r.get("events_per_sec") is None:
                continue
            values = dict(r, run=label)
            fh.write("\t".join(str(values.get(c, "-")) for c in columns)
                     + "\n")


# --------------------------------------------------------------------------
# HTML dashboard (--html).  Everything below is presentation only: pure
# stdlib, inline SVG, no exit-status effect.

_PALETTE = ["#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed",
            "#0891b2", "#be185d", "#4d7c0f", "#9333ea", "#b91c1c"]


def load_history(path):
    """Reads the --append TSV back as ({bench: [(run_index, label, value)]},
    run labels).  Columns are found by header name, so older histories with
    extra columns load too.  Missing/empty file yields empties — the
    dashboard then plots only the current run."""
    series = {}
    labels = []
    if not path or not os.path.exists(path):
        return series, labels
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        try:
            i_run = header.index("run")
            i_bench = header.index("bench")
            i_eps = header.index("events_per_sec")
        except ValueError:
            return {}, []
        for raw in fh:
            parts = raw.rstrip("\n").split("\t")
            if len(parts) <= max(i_run, i_bench, i_eps):
                continue
            run, bench = parts[i_run], parts[i_bench]
            try:
                eps = float(parts[i_eps])
            except ValueError:
                continue
            if run not in labels:
                labels.append(run)
            series.setdefault(bench, []).append((labels.index(run), run, eps))
    return series, labels


def _svg_line_chart(series, labels, floors, width=900, height=320):
    """events/sec trajectories, one polyline per bench series.  Floor rows
    gating events_per_sec draw as dashed lines; points under them get a red
    ring."""
    pad_l, pad_r, pad_t, pad_b = 70, 180, 16, 40
    pw, ph = width - pad_l - pad_r, height - pad_t - pad_b
    all_vals = [v for pts in series.values() for (_, _, v) in pts]
    floor_cuts = {fl["bench"]: fl["floor"] * fl["slack"] for fl in floors
                  if fl["field"] == "events_per_sec"}
    all_vals.extend(floor_cuts.values())
    if not all_vals:
        return "<p>(no events/sec history)</p>"
    vmax = max(all_vals) * 1.08
    nruns = max(len(labels), 1)

    def sx(i):
        return pad_l + (pw * i / max(nruns - 1, 1) if nruns > 1 else pw / 2)

    def sy(v):
        return pad_t + ph * (1 - v / vmax)

    out = ['<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">'
           % (width, height)]
    # y grid + labels (events/sec, engineering notation)
    for k in range(5):
        v = vmax * k / 4
        y = sy(v)
        out.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                   'stroke="#e5e7eb"/>' % (pad_l, y, width - pad_r, y))
        out.append('<text x="%d" y="%.1f" font-size="11" fill="#6b7280" '
                   'text-anchor="end">%.1fM</text>'
                   % (pad_l - 6, y + 4, v / 1e6))
    # x labels: first/last run label (short rev part)
    for i in (0, nruns - 1):
        if i < len(labels):
            out.append('<text x="%.1f" y="%d" font-size="10" fill="#6b7280" '
                       'text-anchor="middle">%s</text>'
                       % (sx(i), height - pad_b + 16,
                          html_escape(labels[i].split("@")[0])))
    for idx, (bench, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join("%.1f,%.1f" % (sx(i), sy(v)) for (i, _, v) in pts)
        out.append('<polyline points="%s" fill="none" stroke="%s" '
                   'stroke-width="1.8"/>' % (coords, color))
        cut = floor_cuts.get(bench.split("/")[0])
        for (i, run, v) in pts:
            bad = cut is not None and v < cut
            out.append('<circle cx="%.1f" cy="%.1f" r="%s" fill="%s"%s>'
                       '<title>%s  %s  %.0f ev/s</title></circle>'
                       % (sx(i), sy(v), "4.5" if bad else "3",
                          "#dc2626" if bad else color,
                          ' stroke="#7f1d1d" stroke-width="2"' if bad else "",
                          html_escape(bench), html_escape(run), v))
        # legend
        ly = pad_t + 14 * idx
        out.append('<rect x="%d" y="%d" width="10" height="10" fill="%s"/>'
                   % (width - pad_r + 10, ly, color))
        out.append('<text x="%d" y="%d" font-size="11" fill="#374151">%s'
                   '</text>' % (width - pad_r + 25, ly + 9,
                                html_escape(bench)))
    for bench, cut in floor_cuts.items():
        y = sy(cut)
        out.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                   'stroke="#dc2626" stroke-dasharray="6 4"/>'
                   % (pad_l, y, width - pad_r, y))
        out.append('<text x="%d" y="%.1f" font-size="10" fill="#dc2626">'
                   'floor %s</text>' % (pad_l + 4, y - 4, html_escape(bench)))
    out.append("</svg>")
    return "".join(out)


def _svg_bar_chart(items, unit, width=520, color="#2563eb"):
    """Horizontal bars for (label, value) pairs; linear scale from zero."""
    if not items:
        return "<p>(no data)</p>"
    bar_h, gap, pad_l, pad_r = 20, 8, 150, 90
    height = len(items) * (bar_h + gap) + gap
    vmax = max(v for (_, v) in items) or 1.0
    pw = width - pad_l - pad_r
    out = ['<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">'
           % (width, height)]
    for i, (label, v) in enumerate(items):
        y = gap + i * (bar_h + gap)
        w = pw * v / vmax
        out.append('<text x="%d" y="%.1f" font-size="11" fill="#374151" '
                   'text-anchor="end">%s</text>'
                   % (pad_l - 8, y + bar_h * 0.7, html_escape(label)))
        out.append('<rect x="%d" y="%d" width="%.1f" height="%d" '
                   'fill="%s" rx="2"/>' % (pad_l, y, max(w, 1), bar_h, color))
        out.append('<text x="%.1f" y="%.1f" font-size="11" fill="#111827">'
                   '%.2f %s</text>'
                   % (pad_l + max(w, 1) + 6, y + bar_h * 0.7, v,
                      html_escape(unit)))
    out.append("</svg>")
    return "".join(out)


def _gate_bullets(data, floors):
    """Quality-gate bullets: measured value vs its floor."""
    rows = []
    for fl in floors:
        if not fl["kind"].startswith("quality"):
            continue
        ceiling = fl["kind"].endswith("_ceiling")
        value = None
        if isinstance(data.get(fl["bench"]), dict):
            value = data[fl["bench"]].get(fl["field"])
        cut = fl["floor"] * fl["slack"]
        ok = isinstance(value, (int, float)) and \
            (value <= cut if ceiling else value >= cut)
        rows.append(
            '<li><span style="color:%s;font-weight:bold">%s</span> '
            "%s.%s = %s (gate %s %g)</li>"
            % ("#059669" if ok else "#dc2626", "PASS" if ok else "FAIL",
               html_escape(fl["bench"]), html_escape(fl["field"]),
               "%.4g" % value if isinstance(value, (int, float)) else "missing",
               "&le;" if ceiling else "&ge;", cut))
    return "<ul>%s</ul>" % "".join(rows) if rows else ""


def html_escape(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_dashboard(path, files, rows, history_path, floors):
    data_by_bench = {}
    for f in files:
        name = os.path.basename(f)
        if name.startswith("BENCH_") and name.endswith(".json"):
            try:
                with open(f, "r", encoding="utf-8") as fh:
                    data_by_bench[name[len("BENCH_"):-len(".json")]] = \
                        json.load(fh)
            except (OSError, ValueError):
                pass
    series, labels = load_history(history_path)
    if not series:  # no history yet: plot the current run as a single point
        for r in rows:
            if r.get("events_per_sec") is not None:
                series[r["bench"]] = [(0, "current", r["events_per_sec"])]
        labels = ["current"]

    parts = ["<!DOCTYPE html><html><head><meta charset='utf-8'>"
             "<title>OSIRIS bench trend</title><style>"
             "body{font-family:system-ui,sans-serif;max-width:960px;"
             "margin:24px auto;color:#111827}h2{border-bottom:1px solid "
             "#e5e7eb;padding-bottom:4px}table{border-collapse:collapse}"
             "td,th{padding:3px 10px;border-bottom:1px solid #f3f4f6;"
             "text-align:right}th:first-child,td:first-child{text-align:left}"
             "</style></head><body>",
             "<h1>OSIRIS bench trend</h1>",
             "<p>Generated %s · %d bench files · history: %s</p>"
             % (html_escape(time.strftime("%Y-%m-%d %H:%M:%S")), len(files),
                html_escape(history_path or "(none)"))]

    parts.append("<h2>Events/sec trajectory</h2>")
    parts.append(_svg_line_chart(series, labels, floors))

    lat = data_by_bench.get("table1_latency", {}).get("pdu_latency")
    if isinstance(lat, dict):
        parts.append("<h2>PDU end-to-end latency (latest run)</h2>")
        pct = [(k.replace("e2e_us_", ""), lat[k]) for k in
               ("e2e_us_p50", "e2e_us_p90", "e2e_us_p99", "e2e_us_p999")
               if isinstance(lat.get(k), (int, float))]
        parts.append(_svg_bar_chart(pct, "&#181;s"))
        stages = lat.get("stage_us_p50")
        if isinstance(stages, dict) and stages:
            parts.append("<h3>Per-stage medians</h3>")
            parts.append(_svg_bar_chart(sorted(stages.items()), "&#181;s",
                                        color="#059669"))

    demux = data_by_bench.get("demux", {})
    sweep = [r for r in demux.get("sweep", [])
             if isinstance(r, dict) and
             isinstance(r.get("flow_ns_per_cell"), (int, float))]
    if sweep:
        parts.append("<h2>Demultiplexing scaling (latest run)</h2>")
        items = [("%g VCIs" % r.get("vcis", 0), r["flow_ns_per_cell"])
                 for r in sweep]
        parts.append(_svg_bar_chart(items, "ns/cell"))
        base = [("%g VCIs" % r.get("vcis", 0), r["maps_ns_per_cell"])
                for r in sweep
                if isinstance(r.get("maps_ns_per_cell"), (int, float))]
        if base:
            parts.append("<h3>Five-map baseline (pre-consolidation)</h3>")
            parts.append(_svg_bar_chart(base, "ns/cell", color="#dc2626"))
        bullet = []
        for key, label in (("demux_ns_per_cell", "ns/cell @10^4"),
                           ("demux_flatness", "flatness (max/min)"),
                           ("demux_speedup_1e4", "speedup @10^4")):
            v = demux.get(key)
            if isinstance(v, (int, float)):
                bullet.append("<li>%s = %.3g</li>" % (label, v))
        if bullet:
            parts.append("<ul>%s</ul>" % "".join(bullet))

    if floors:
        parts.append("<h2>Quality gates</h2>")
        parts.append(_gate_bullets(data_by_bench, floors))

    parts.append("<h2>Latest run</h2>")
    parts.append("<table><tr><th>bench</th><th>wall s</th>"
                 "<th>events</th><th>events/sec</th></tr>")
    for r in rows:
        if "error" in r:
            continue
        parts.append("<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>"
                     % (html_escape(r["bench"]),
                        fmt(r["wall_seconds"], "%.3f"),
                        fmt(r["engine_events"], "%d"),
                        fmt(r["events_per_sec"], "%.0f")))
    parts.append("</table></body></html>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="directories or BENCH_*.json files to sweep")
    ap.add_argument("--append", metavar="FILE",
                    help="append rows to this TSV history file")
    ap.add_argument("--label", help="run label for --append "
                                    "(default: git rev + timestamp)")
    ap.add_argument("--floors", metavar="FILE",
                    help="TSV of per-bench floors to enforce "
                         "(bench/field/floor/slack/kind)")
    ap.add_argument("--html", metavar="FILE",
                    help="write a self-contained SVG dashboard here")
    args = ap.parse_args(argv)

    paths = args.paths or ["build/bench", "build"]
    files = find_bench_files(paths)
    if not files:
        print("bench_trend: no BENCH_*.json found under %s" % ", ".join(paths),
              file=sys.stderr)
        return 1

    rows = load_rows(files)
    print_table(rows)

    measured = [r for r in rows if r.get("events_per_sec") is not None]
    skipped = [r["bench"] for r in rows
               if "error" not in r and r.get("events_per_sec") is None]
    if skipped:
        print("\n(no perf fields: %s)" % ", ".join(skipped))
    if args.append:
        label = args.label or run_label()
        append_history(measured, args.append, label)
        print("appended %d rows to %s as %s"
              % (len(measured), args.append, label))
    floors = []
    if args.floors:
        try:
            floors = load_floors(args.floors)
        except (OSError, ValueError) as exc:
            print("bench_trend: bad floors file: %s" % exc, file=sys.stderr)
            return 1
    if args.html:
        write_dashboard(args.html, files, rows, args.append, floors)
        print("wrote dashboard to %s" % args.html)
    if args.floors:
        print()
        if check_floors(files, floors):
            print("bench_trend: floor violations", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
