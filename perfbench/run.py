#!/usr/bin/env python3
"""The OSIRIS simulator's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of a checkout. The first call configures and builds the
simulator and the perfbench binary from source into .bench_build/perfbench
(CMake, Release); later calls only bring the build up to date.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it give the host facts and every metric with its unit.

A run is correct when every item passed the binary's correctness gate and,
for the pinned seed, the block fingerprint equals the one pinned in
perfbench/manifest.json. --test builds and runs perfbench's own tests.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures and builds `target`; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def result_line(report, spec, manifest, seed, trace):
    """Builds the result object from the binary's report; None on a bug."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        log(f"perfbench: report lacks metrics {missing}")
        return None

    attempted, failed = report["attempted"], report["failed"]
    pins = manifest["pinned_fingerprints"]
    pinned = pins["values"].get(report["workload"])
    if seed == pins["seed"] and report["fingerprint"] != pinned:
        log(f"perfbench: fingerprint {report['fingerprint']} != pinned {pinned}")
        failed = attempted

    print(f"host: {json.dumps(report['host'], sort_keys=True)}")
    print(f"workload {report['workload']} seed {seed}: {report['blocks']} blocks, "
          f"{attempted} items, failed_frac {failed / attempted:.6g}, "
          f"fingerprint {report['fingerprint']}, "
          f"paper_err_pct {report['paper_err_pct']:.6g} %, "
          f"host_scale {report['host_scale']:.6g}")
    if report["raw"]:
        print("  times are wall times x host_scale; raw wall figures on the right")
    metrics = {}
    for m in wanted:
        value = report["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        raw = report["raw"].get(m["name"])
        print(f"  {m['name']:36s} {value:.6g} {m['unit']}"
              + ("" if raw is None else f"   raw {raw:.6g} {m['unit']}"))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([str(BUILD / "perfbench_test")]).returncode

    spec = load_json(ROOT / "BENCHMARK.json")
    manifest = load_json(HERE / "manifest.json")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload!r}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("perfbench: --seed must be >= 0 and --seconds > 0")
        return 2
    if not build("perfbench"):
        return 1

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: binary exited {proc.returncode}")
        return proc.returncode
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    result = result_line(report, spec, manifest, args.seed, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
