#!/usr/bin/env bash
# Byte oracle for the deterministic campaigns: re-runs bench_faults,
# bench_wan, bench_pipeline and bench_keys (quick mode, analytic or
# fixed CPU scale) in a fresh directory and requires each of the 11
# CSVs below to be byte-identical to the committed copy in results/.
# Any change to a wire path, fault draw, ARQ timer, crypto billing
# or trace attribution that moves a simulated number shows up here
# as a diff. Run from anywhere, after building the default preset:
#
#   scripts/check_replay.sh                    # binaries from build/bench
#   scripts/check_replay.sh BUILD_DIR          # binaries from BUILD_DIR/bench
#   scripts/check_replay.sh BUILD_DIR OUT_DIR  # keep the outputs in OUT_DIR
#
# Without OUT_DIR the campaigns run in a temp dir that is removed on
# exit. With OUT_DIR (created if missing; it must hold no results/
# subdir) their CSVs, logs and BENCH_*.json trajectories stay there,
# so a caller can feed them to scripts/bench_compare.py without
# running the campaigns a second time.
#
# Exits 0 when all 11 files match, 1 on the first mismatch (the diff
# of the offending CSV is printed), 2 when a bench binary is missing
# or OUT_DIR holds a results/ subdir.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$repo/build}" && pwd)"
bench="$build/bench"

for b in bench_faults bench_wan bench_pipeline bench_keys; do
  if [ ! -x "$bench/$b" ]; then
    echo "check_replay: missing $bench/$b (build the default preset first)" >&2
    exit 2
  fi
done

# The benches write bare CSV names into ./results when it exists and
# into the working directory otherwise: a directory without results/
# keeps the committed files untouched.
if [ $# -ge 2 ]; then
  mkdir -p "$2"
  work="$(cd "$2" && pwd)"
  if [ -e "$work/results" ]; then
    echo "check_replay: $work/results exists; the CSVs would land there" >&2
    exit 2
  fi
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
cd "$work"

echo "==> replay campaigns in $work"
"$bench/bench_faults" > faults.log
"$bench/bench_wan" --quick --cpu-scale=1 --salts=3 > wan.log
"$bench/bench_pipeline" --quick --cpu-scale=1 --salts=3 \
  --trace="$work/pipeline_trace.json" > pipeline.log
"$bench/bench_keys" --quick --cpu-scale=1 \
  --trace="$work/keys_trace.json" > keys.log

csvs=(faults reliability ft_recovery wan_goodput wan_relay pipeline_goodput
      pipeline_sweep attribution_pipeline keys_lkh_rekey keys_handshake_loss
      attribution_keys)
for name in "${csvs[@]}"; do
  if ! cmp -s "$name.csv" "$repo/results/$name.csv"; then
    echo "check_replay: $name.csv differs from results/$name.csv" >&2
    diff "$repo/results/$name.csv" "$name.csv" | head -20 >&2 || true
    exit 1
  fi
  echo "    $name.csv identical"
done
echo "==> replay oracle: ${#csvs[@]} CSVs byte-identical"
