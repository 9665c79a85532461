#!/usr/bin/env bash
# Runs the observability overhead bench and writes its result to
# BENCH_obs_overhead.json (repo root by default). The bench times hot
# fast-lane compiles against an alcopd with the full observability stack
# (HTTP, access log, flight recorder, watchdog, per-client metrics) and
# against a plain one, in alternating rounds. Its gate decides the exit
# status: the median per-round p99 of the obs daemon within 10% of the
# plain daemon's.
#
# Usage: scripts/bench_obs_overhead.sh [output.json]
#   output.json  where to write the result (default: ./BENCH_obs_overhead.json)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_obs_overhead.json}"
BIN=build/bench/obs_overhead

if [[ ! -x "$BIN" ]]; then
  echo "building $BIN..." >&2
  cmake -B build -S . >/dev/null
  cmake --build build --target obs_overhead -j "$(nproc)" >/dev/null
fi

echo "running observability overhead bench..." >&2
STATUS=0
"$BIN" > "$OUT" || STATUS=$?
# Stamp run provenance (git SHA, date, thread setting) into the meta
# block; skipped gracefully when python3 is unavailable.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_meta.py "$OUT"
fi
cat "$OUT"
echo "wrote $OUT" >&2
exit "$STATUS"
