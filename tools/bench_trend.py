#!/usr/bin/env python3
"""Fold BENCH_*.json perf fields into a single table and gate on floors.

Every BENCH_*.json that bench_paper writes carries the common
perf-trajectory fields (setup_seconds, run_seconds, wall_seconds,
engine_events, sim_seconds, sim_us_per_sec) via benchjson::perf_fields;
sim_us_per_sec is simulated microseconds per run second. This script
sweeps one or more directories (or explicit files) for BENCH_*.json and
prints an aligned table of those fields.

Usage:
    tools/bench_trend.py [paths...] [--floors FILE] [--same-as DIR]

Paths default to build/bench and build.  Files without the perf fields
are listed with dashes, not errors.
Exits nonzero if no BENCH_*.json file is found at all, or if a floor is
violated.

--floors names a file (bench/floors.tsv) with one row per gated metric —

    bench <TAB> field <TAB> floor <TAB> slack <TAB> kind

`bench` names BENCH_<bench>.json, `field` a top-level numeric field in it,
and the check is  value >= floor * slack  (slack < 1 is the haircut that
absorbs machine-to-machine noise).  The one kind is perf, and perf rows
are skipped when OSIRIS_SANITIZE is set (sanitized binaries are
legitimately slower).  Any violated or uncheckable floor makes the script
exit nonzero.

--same-as names a directory of BENCH_*.json from another tree (say, the
parent commit's bench_paper run).  Every field of each bench, rows and
engine_events included, must equal the same bench's field there; only the
timing fields (TIMING_FIELDS) are skipped.  The script names each bench
and field that differs, or a bench found on one side only, and exits
nonzero if there is any.  A change that claims to move no simulated number
shows it with this check.
"""

import argparse
import glob
import json
import os
import sys

# The fields that measure the host, not the simulation; --same-as skips them.
TIMING_FIELDS = ("setup_seconds", "run_seconds", "wall_seconds",
                 "sim_us_per_sec")


def find_bench_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(os.path.join(p, "BENCH_*.json"))))
        elif os.path.isfile(p):
            files.append(p)
    return files


def bench_name(path):
    return os.path.basename(path)[len("BENCH_"):-len(".json")]


def load_benches(files):
    """Maps each bench name to its parsed JSON, or to the error text when
    the file cannot be read."""
    benches = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                benches[bench_name(path)] = json.load(fh)
        except (OSError, ValueError) as exc:
            benches[bench_name(path)] = str(exc)
    return benches


def fmt(value, spec):
    if value is None:
        return "-"
    try:
        return spec % value
    except TypeError:
        return str(value)


def print_table(benches):
    header = ("bench", "setup_s", "run_s", "wall_s", "events", "sim_us/sec")
    width = max([len(header[0])] + [len(b) for b in benches])
    line = "%-" + str(width) + "s  %9s  %9s  %9s  %12s  %13s"
    print(line % header)
    for bench, data in benches.items():
        if not isinstance(data, dict):
            print("%-*s  unreadable: %s" % (width, bench, data))
            continue
        print(line % (
            bench,
            fmt(data.get("setup_seconds"), "%.3f"),
            fmt(data.get("run_seconds"), "%.3f"),
            fmt(data.get("wall_seconds"), "%.3f"),
            fmt(data.get("engine_events"), "%d"),
            fmt(data.get("sim_us_per_sec"), "%.0f"),
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
            if kind != "perf":
                raise ValueError("%s:%d: kind must be perf, got %r"
                                 % (path, lineno, kind))
            floors.append({
                "bench": bench,
                "field": field,
                "floor": float(floor),
                "slack": float(slack),
            })
    return floors


def check_floors(benches, floors):
    """Checks each floor row against its bench's JSON.  Returns the number
    of violations (missing file/field counts as one — a gate that cannot
    run must not pass)."""
    sanitized = bool(os.environ.get("OSIRIS_SANITIZE"))
    failures = 0
    for fl in floors:
        tag = "%s.%s" % (fl["bench"], fl["field"])
        if sanitized:
            print("floor SKIP %-32s (perf gate, OSIRIS_SANITIZE set)" % tag)
            continue
        data = benches.get(fl["bench"])
        value = data.get(fl["field"]) if isinstance(data, dict) else None
        cut = fl["floor"] * fl["slack"]
        if not isinstance(value, (int, float)):
            print("floor FAIL %-32s missing (want >= %g)" % (tag, cut))
            failures += 1
        elif value < cut:
            print("floor FAIL %-32s %g not >= %g (floor %g x slack %g)"
                  % (tag, value, cut, fl["floor"], fl["slack"]))
            failures += 1
        else:
            print("floor ok   %-32s %g >= %g" % (tag, value, cut))
    return failures


def diff_fields(a, b, path):
    """Yields (path, a value, b value) for every leaf where the parsed JSON
    values a and b differ; a field missing on one side reads as None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = "%s.%s" % (path, key) if path else key
            if key not in a or key not in b:
                yield sub, a.get(key), b.get(key)
            else:
                yield from diff_fields(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_fields(x, y, "%s[%d]" % (path, i))
    elif a != b:
        yield path, a, b


def check_same(benches, ref_dir):
    """Compares each bench with the same bench under ref_dir, skipping
    TIMING_FIELDS.  Returns the number of differences (a bench on one side
    only, or unreadable on either, counts as one)."""
    ref = load_benches(find_bench_files([ref_dir]))
    failures = 0
    for bench in sorted(set(benches) | set(ref)):
        mine, theirs = benches.get(bench), ref.get(bench)
        if mine is None or theirs is None:
            print("same-as DIFF %s: only in %s"
                  % (bench, ref_dir if mine is None else "this run"))
            failures += 1
            continue
        if not isinstance(mine, dict) or not isinstance(theirs, dict):
            print("same-as DIFF %s: unreadable" % bench)
            failures += 1
            continue
        diffs = list(diff_fields(
            {k: v for k, v in mine.items() if k not in TIMING_FIELDS},
            {k: v for k, v in theirs.items() if k not in TIMING_FIELDS}, ""))
        for field, a, b in diffs:
            print("same-as DIFF %s %s: %s here, %s in %s"
                  % (bench, field, json.dumps(a), json.dumps(b), ref_dir))
        failures += len(diffs)
    if not failures:
        print("same-as: %d benches equal %s on every field but %s"
              % (len(benches), ref_dir, ", ".join(TIMING_FIELDS)))
    return failures


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="directories or BENCH_*.json files to sweep")
    ap.add_argument("--floors", metavar="FILE",
                    help="TSV of per-bench floors to enforce "
                         "(bench/field/floor/slack/kind)")
    ap.add_argument("--same-as", metavar="DIR",
                    help="directory of BENCH_*.json whose every field but "
                         "the timing ones each bench must equal")
    args = ap.parse_args(argv)

    paths = args.paths or ["build/bench", "build"]
    files = find_bench_files(paths)
    if not files:
        print("bench_trend: no BENCH_*.json found under %s" % ", ".join(paths),
              file=sys.stderr)
        return 1

    benches = load_benches(files)
    print_table(benches)
    if args.floors:
        try:
            floors = load_floors(args.floors)
        except (OSError, ValueError) as exc:
            print("bench_trend: bad floors file: %s" % exc, file=sys.stderr)
            return 1
        print()
        if check_floors(benches, floors):
            print("bench_trend: floor violations", file=sys.stderr)
            return 1
    if args.same_as:
        print()
        if check_same(benches, args.same_as):
            print("bench_trend: benches differ from %s" % args.same_as,
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
