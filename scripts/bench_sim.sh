#!/usr/bin/env bash
# Runs the simulator-throughput bench (AST interpreter vs compiled
# micro-op replay over the Fig. 10 sweep) and writes machine-readable
# results to BENCH_sim.json (repo root by default), so replay speedup,
# determinism, the zero-allocation property of the warm path, and both
# sim-cache layers are tracked from PR to PR.
#
# Usage: scripts/bench_sim.sh [--quick] [output.json]
#   --quick      stride the schedule space 16x (the CI perf-smoke mode)
#   output.json  where to write the result (default: ./BENCH_sim.json)
#
# Exit status is the bench's own: nonzero only when determinism, the
# zero-allocation gate, or a program-size gate (bytes per config, ops
# flat in K) fails — never because of wall time.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=""
OUT="BENCH_sim.json"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) OUT="$arg" ;;
  esac
done
BIN=build/bench/sim_throughput

if [[ ! -x "$BIN" ]]; then
  echo "building $BIN..." >&2
  cmake -B build -S . >/dev/null
  cmake --build build --target sim_throughput -j "$(nproc)" >/dev/null
fi

echo "running simulator-throughput bench${QUICK:+ (quick)}..." >&2
"$BIN" $QUICK > "$OUT"
# Stamp run provenance (git SHA, date, thread setting) into the meta
# block; skipped gracefully when python3 is unavailable.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_meta.py "$OUT"
fi
cat "$OUT"
echo "wrote $OUT" >&2

# One-line delta against the committed baseline, so a local run shows at
# a glance whether replay throughput or skeleton sharing moved.
if command -v python3 >/dev/null 2>&1 \
    && git show HEAD:BENCH_sim.json > "$OUT.base" 2>/dev/null; then
  python3 - "$OUT" "$OUT.base" >&2 <<'EOF' || true
import json, sys
new, old = (json.load(open(p)) for p in sys.argv[1:3])
def pick(doc, *path):
    for key in path:
        doc = doc.get(key, {}) if isinstance(doc, dict) else {}
    return doc if isinstance(doc, (int, float)) else 0.0
rate_n, rate_o = (pick(d, "replay_configs_per_sec") for d in (new, old))
gain_n, gain_o = (pick(d, "cache", "skeleton_sharing_gain") for d in (new, old))
bpc_n, bpc_o = (pick(d, "cache", "bytes_per_config") for d in (new, old))
unsh_n, unsh_o = (pick(d, "cache", "bytes_per_config_unshared")
                  for d in (new, old))
ratio = rate_n / rate_o if rate_o else float("inf")
print(f"delta vs HEAD: replay {rate_o:.0f} -> {rate_n:.0f} configs/s "
      f"({ratio:.2f}x), sharing gain {gain_o:.2f} -> {gain_n:.2f}, "
      f"bytes/config {bpc_o:.0f} -> {bpc_n:.0f} "
      f"(unshared {unsh_o:.0f} -> {unsh_n:.0f})")
EOF
  rm -f "$OUT.base"
fi
