#!/bin/sh
# Builds and tests the tree twice: a plain RelWithDebInfo pass, then an
# AddressSanitizer+UBSan pass (build-asan/). In both, every -Wall -Wextra
# warning is an error. Either failing fails the script.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Runs `<chaos_sweep binary> --seeds <n>` and fails unless it reports the
# pinned totals: a change that makes the schedules fire fewer faults, or
# reset or resync a different number of times, has changed what the sweep
# exercises even when every run stays clean.
chaos_sweep_pinned() {
  out="$("$1" --seeds "$2" --repro-out build/chaos_repro.txt)" \
    || { printf '%s\n' "$out"; exit 1; }
  printf '%s\n' "$out"
  case "$out" in
    *"$2 seeds clean ($3)"*) ;;
    *) echo "chaos sweep --seeds $2: expected totals ($3)" >&2; exit 1 ;;
  esac
}

echo "== plain build (warnings are errors) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# gtest lists a parameterised case with its parameter's print, and CMake
# keeps that print in the ctest name unless it replaces a plain index. A
# parameter without a PrintTo prints as raw bytes, which can change from
# build to build, so a listed name may not carry one.
if ctest --test-dir build -N | grep 'GetParam() =' >&2; then
  echo "ctest names above carry a parameter print: give the parameter a" \
       "PrintTo and drop the name generator" >&2
  exit 1
fi

echo "== perfbench: build, own tests, pinned fingerprints =="
# perfbench compiles src/ as a project of its own (.bench_build/perfbench),
# so this is the stage that catches a src/ change breaking its compile or
# moving a simulated outcome. Seed 1 is the pinned seed: a run whose block
# fingerprint differs from perfbench/manifest.json reports "correct": false
# on its last line, but run.py exits 0 either way, so that field is checked.
# Seed 23 is not pinned, so only the per-item delivery and conservation
# gates apply there; a change that holds only at the pinned seed fails it.
python3 perfbench/run.py --test
for seed in 1 23; do
  for w in rx_stream tx_stream pingpong chaos; do
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 0.1 | tail -n 1 \
      | python3 -c 'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])' 2>/dev/null \
      || { echo "perfbench $w --seed $seed is not correct" >&2; exit 1; }
  done
done

echo "== bench smoke (machine-readable output) =="
# bench_paper runs every experiment, the paper's 16 and then the four
# robustness ones (about 1 s), and writes one JSON file each; the
# Table 1, Figure 2-4 and chaos files carry the whole-system simulated
# microseconds per run second that the floors below gate.
( cd build/bench && ./bench_paper >/dev/null )
for b in table1_latency fig2_receive_5000 fig3_receive_3000 fig4_transmit \
         dma_length interrupts lockfree fragmentation cache skew dma_vs_pio \
         fbuf adc fixed_dma wiring priority fault adc_isolation qos chaos; do
  f="build/bench/BENCH_$b.json"
  [ -s "$f" ] || { echo "missing or empty $f" >&2; exit 1; }
done
# The --stats-json dump must parse, both nodes must expose the same counter
# names, and every counter must be an exact integer. The --trace-out file
# must parse, with instant events on both nodes' trace tracks and at least
# one PDU slice.
./build/examples/quickstart --stats-json=build/stats.json \
  --trace-out=build/trace.json >/dev/null
python3 - build/stats.json build/trace.json <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
names = {n: {k[2:] for k in counters if k.startswith(n + ".")} for n in "ab"}
assert names["a"], "no node counters in " + sys.argv[1]
assert names["a"] == names["b"], names["a"] ^ names["b"]
bad = [k for k, v in counters.items() if type(v) is not int]
assert not bad, "non-integer counters: %s" % bad
events = json.load(open(sys.argv[2]))["traceEvents"]
tracks = {e["tid"] for e in events if e["ph"] == "i"}
assert {"a/trace", "b/trace"} <= tracks, "instant tracks: %s" % tracks
assert any(e["ph"] == "X" for e in events), "no PDU slice in " + sys.argv[2]
EOF
# The same seed must give the same dumps: a second run with the same flags,
# writing to other paths, must reproduce both files byte for byte.
./build/examples/quickstart --stats-json=build/stats.rerun.json \
  --trace-out=build/trace.rerun.json >/dev/null
for f in stats trace; do
  cmp "build/$f.json" "build/$f.rerun.json" \
    || { echo "quickstart: build/$f.json differs between two runs" >&2; exit 1; }
done

echo "== chaos sweep (fixed seeds) =="
# Deterministic fault-injection sweep over generated schedules: every run
# must drain with zero invariant violations. On failure the sweep shrinks
# the schedule to a 1-minimal action set and leaves a replayable artifact
# (schedule + postmortem) at build/chaos_repro.txt — attach it to the bug;
# `tools/chaos_sweep --replay build/chaos_repro.txt` reproduces it exactly.
chaos_sweep_pinned ./build/tools/chaos_sweep 40 \
  "121 faults fired, 9 resets, 3 arq resyncs"

echo "== perf trend table + per-bench floors =="
# Fold every BENCH_*.json's common perf fields (setup_seconds, run_seconds,
# wall_seconds, engine_events, sim_seconds, sim_us_per_sec) into one table,
# then gate on bench/floors.tsv: the whole-system simulated microseconds
# per run second of the paper benches and the chaos experiment
# (bench_trend.py skips them when OSIRIS_SANITIZE is set in the
# environment, as sanitized binaries are slower).
python3 tools/bench_trend.py build/bench --floors bench/floors.tsv

echo "== sanitized build (address,undefined; warnings are errors) =="
cmake -B build-asan -S . -DOSIRIS_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== chaos sweep under ASan/UBSan =="
# A bounded slice of the sweep re-runs sanitized: recovery paths (adaptor
# reset, ARQ resync, reassembly reconciliation) must be memory-clean, not
# just invariant-clean. Its totals are pinned as well.
chaos_sweep_pinned ./build-asan/tools/chaos_sweep 8 \
  "17 faults fired, 1 resets, 1 arq resyncs"

echo "== ci.sh: all green =="
