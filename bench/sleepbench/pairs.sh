#!/usr/bin/env bash
# Measures two source checkouts in pairs, the protocol `compare` expects:
# for each workload and each pair, the baseline A and the candidate B run
# back to back on the same seed, alternating which side goes first, so a
# drift in the host's speed falls on both runs of a pair alike.
#
#   bench/sleepbench/pairs.sh A_ROOT B_ROOT OUT_DIR [--pairs N]
#                             [--workload NAME|all] [--first-seed S]
#
# A_ROOT and B_ROOT are checkouts of the repository (give the same one
# twice to measure the benchmark's own noise). Pair k runs seed
# first-seed + k - 1 (default 1) for the run length A_ROOT's
# BENCHMARK.json fixes; 10 pairs by default. Results land in OUT_DIR/A
# and OUT_DIR/B, and the script ends with `compare OUT_DIR/A OUT_DIR/B`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ $# -lt 3 ]]; then
  echo "usage: pairs.sh A_ROOT B_ROOT OUT_DIR [--pairs N] [--workload NAME|all] [--first-seed S]" >&2
  exit 2
fi
root_a="$(cd "$1" && pwd)" root_b="$(cd "$2" && pwd)" out="$3"
shift 3
pairs=10 workload=all first_seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --first-seed) first_seed="$2"; shift 2 ;;
    *) echo "pairs.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
workloads="$workload"
[[ "$workload" == "all" ]] &&
  workloads="probe_campaign store_campaign reanalyze checkpoint_resume"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root_a/BENCHMARK.json")"
mkdir -p "$out/A" "$out/B"

run() {  # side, workload, seed
  local root="$root_a"
  [[ "$1" == "B" ]] && root="$root_b"
  local file="$out/$1/$2-seed$3.json"
  local status=0
  bash "$root/bench/sleepbench/run.sh" --workload "$2" --seed "$3" \
    --seconds "$seconds" --out "$file" >"$out/$1/$2-seed$3.log" 2>&1 || status=$?
  echo "$1 $2 seed $3: exit $status"
}

for name in $workloads; do
  for ((k = 0; k < pairs; ++k)); do
    seed=$((first_seed + k))
    if ((k % 2 == 0)); then
      run A "$name" "$seed"; run B "$name" "$seed"
    else
      run B "$name" "$seed"; run A "$name" "$seed"
    fi
  done
done
exec python3 "$here/compare.py" --benchmark "$root_a/BENCHMARK.json" "$out/A" "$out/B"
