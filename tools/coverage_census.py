#!/usr/bin/env python3
"""Coverage census: the src/ functions that no workload runs.

Builds bench_paper, chaos_sweep and quickstart into build-cov/ with
-O0 --coverage, runs the three workloads (bench_paper inside
build-cov/bench, chaos_sweep --seeds 40, quickstart with --stats-json and
--trace-out), then merges gcov's JSON output over every .gcda file those
runs wrote. All of them count, not only src/'s: a header function
instantiated only in bench code would otherwise read as never run.

Prints each never-run src/ function as file:line and its demangled name,
then the line and function totals. A function is its demangled name in
its file, so a destructor's deleting and base-object variants count once;
lambdas and template instances count as functions of their own.

Usage: python3 tools/coverage_census.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-cov")
SRC = os.path.join(ROOT, "src") + os.sep
JOBS = min(4, os.cpu_count() or 1)  # a few compilers, not one per core


def run(cmd, cwd=ROOT):
    subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.DEVNULL)


def build():
    run(["cmake", "-B", BUILD, "-S", ROOT, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS=-O0 --coverage",
         "-DCMAKE_EXE_LINKER_FLAGS=--coverage"])
    run(["cmake", "--build", BUILD, "-j", str(JOBS), "--target",
         "bench_paper", "chaos_sweep", "quickstart"])


def gcda_files():
    for d, _, names in os.walk(BUILD):
        for n in names:
            if n.endswith(".gcda"):
                yield os.path.join(d, n)


def run_workloads():
    for f in gcda_files():
        os.remove(f)  # counts from an earlier census would add up
    run([os.path.join(BUILD, "bench", "bench_paper")],
        cwd=os.path.join(BUILD, "bench"))
    run([os.path.join(BUILD, "tools", "chaos_sweep"), "--seeds", "40"],
        cwd=BUILD)  # a failing seed leaves its artifact there
    run([os.path.join(BUILD, "examples", "quickstart"),
         "--stats-json=" + os.path.join(BUILD, "stats.json"),
         "--trace-out=" + os.path.join(BUILD, "trace.json")])


def census():
    """Returns ({(file, line): count}, {(file, demangled name): [first
    line, count]}) over src/, summed across translation units."""
    lines, funcs = {}, {}
    for gcda in sorted(gcda_files()):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "-o", os.path.dirname(gcda),
             gcda], cwd=BUILD, check=True, capture_output=True, text=True).stdout
        for doc in out.splitlines():
            data = json.loads(doc)
            cwd = data["current_working_directory"]
            for f in data["files"]:
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, ROOT)
                for ln in f["lines"]:
                    key = (rel, ln["line_number"])
                    lines[key] = lines.get(key, 0) + ln["count"]
                for fn in f["functions"]:
                    entry = funcs.setdefault((rel, fn["demangled_name"]),
                                             [fn["start_line"], 0])
                    entry[0] = min(entry[0], fn["start_line"])
                    entry[1] += fn["execution_count"]
    return lines, funcs


def main():
    build()
    run_workloads()
    lines, funcs = census()
    never = sorted((rel, line, name)
                   for (rel, name), (line, count) in funcs.items()
                   if count == 0)
    for rel, line, name in never:
        print("%s:%d %s" % (rel, line, name))
    ran = sum(1 for c in lines.values() if c > 0)
    print("lines run: %d of %d (%.1f%%)" %
          (ran, len(lines), 100.0 * ran / max(1, len(lines))))
    print("functions never run: %d of %d" % (len(never), len(funcs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
