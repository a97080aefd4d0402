#!/bin/sh
# Builds and tests the tree twice: a plain RelWithDebInfo pass, in which
# every -Wall -Wextra warning is an error, then an AddressSanitizer+UBSan
# pass (build-asan/). Either failing fails the script.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== plain build (warnings are errors) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== bench smoke (machine-readable output) =="
# The robustness benches must run to completion and emit their JSON result
# files (goodput + latency quantiles per row/tenant) for downstream plots.
# The paper benches (Table 1, Figures 2-4) run too, so their whole-system
# events/sec meets the floors below (about 5 s together).
( cd build/bench \
  && ./bench_fault --benchmark_min_time=0.01s >/dev/null \
  && ./bench_adc_isolation >/dev/null \
  && ./bench_qos >/dev/null \
  && ./bench_chaos >/dev/null \
  && ./bench_demux >/dev/null \
  && ./bench_table1_latency >/dev/null \
  && ./bench_fig2_receive_5000 >/dev/null \
  && ./bench_fig3_receive_3000 >/dev/null \
  && ./bench_fig4_transmit >/dev/null )
for f in build/bench/BENCH_fault.json build/bench/BENCH_adc_isolation.json \
         build/bench/BENCH_qos.json build/bench/BENCH_chaos.json \
         build/bench/BENCH_demux.json build/bench/BENCH_table1_latency.json \
         build/bench/BENCH_fig2_receive_5000.json \
         build/bench/BENCH_fig3_receive_3000.json \
         build/bench/BENCH_fig4_transmit.json; do
  [ -s "$f" ] || { echo "missing or empty $f" >&2; exit 1; }
done
# The --stats-json dump must parse, both nodes must expose the same counter
# names, and every counter must be an exact integer.
./build/examples/quickstart --stats-json=build/stats.json >/dev/null
python3 - build/stats.json <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
names = {n: {k[2:] for k in counters if k.startswith(n + ".")} for n in "ab"}
assert names["a"], "no node counters in " + sys.argv[1]
assert names["a"] == names["b"], names["a"] ^ names["b"]
bad = [k for k, v in counters.items() if type(v) is not int]
assert not bad, "non-integer counters: %s" % bad
EOF

echo "== chaos sweep (fixed seeds) =="
# Deterministic fault-injection sweep over generated schedules: every run
# must drain with zero invariant violations. On failure the sweep shrinks
# the schedule to a 1-minimal action set and leaves a replayable artifact
# (schedule + postmortem) at build/chaos_repro.txt — attach it to the bug;
# `tools/chaos_sweep --replay build/chaos_repro.txt` reproduces it exactly.
./build/tools/chaos_sweep --seeds 40 --repro-out build/chaos_repro.txt

echo "== engine determinism smoke =="
# bench_engine self-checks dispatch-order determinism (nonzero exit on
# mismatch) and writes BENCH_engine.json for the floor check below.
( cd build/bench && ./bench_engine )

echo "== perf trend table + per-bench floors =="
# Fold every BENCH_*.json's common perf fields (setup_seconds, run_seconds,
# wall_seconds, engine_events, events_per_sec) into one table so throughput
# trajectories across benches are visible in a single CI artifact.
# --floors then gates on bench/floors.tsv: engine and whole-system paper
# bench events/sec and chaos scenarios/sec (perf floors, skipped under
# OSIRIS_SANITIZE), the demux flow-table gates (single-probe speedup floor
# plus ns/cell and flatness ceilings), and the QoS and chaos quality
# floors, which apply to every build flavor.  --html renders the
# accumulated history as a self-contained SVG dashboard artifact; it never
# affects gating.
python3 tools/bench_trend.py build/bench --append build/bench_trend.tsv \
  --html build/bench_trend.html --floors bench/floors.tsv
[ -s build/bench_trend.html ] || { echo "missing bench_trend.html" >&2; exit 1; }

echo "== sanitized build (address,undefined) =="
cmake -B build-asan -S . -DOSIRIS_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== chaos sweep under ASan/UBSan =="
# A bounded slice of the sweep re-runs sanitized: recovery paths (adaptor
# reset, ARQ resync, reassembly reconciliation) must be memory-clean, not
# just invariant-clean.
./build-asan/tools/chaos_sweep --seeds 8 --repro-out build/chaos_repro.txt

echo "== ci.sh: all green =="
