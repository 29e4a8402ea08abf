#!/usr/bin/env bash
# sleepbench entry point. Builds the benchmark from source into
# build-bench/ (RelWithDebInfo, no sanitizers), then runs each workload
# in its own process.
#
#   bench/sleepbench/run.sh --workload NAME|all [--seed N] [--seconds S]
#                           [--trace 0|1 | --traced] [--out FILE] [--smoke]
#   bench/sleepbench/run.sh compare DIR_A DIR_B
#
# --out names the result file of a single workload (default:
# build-bench/results/<workload>-seed<N>-<mode>-<time>.json); with
# --workload all it names the directory those files go to. --smoke runs every workload (or
# the one named) at a tiny size for 1 s with every check on. The last
# line on stdout of a single workload is its one-line JSON summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ "${1:-}" == "compare" ]]; then
  shift
  exec python3 "$here/compare.py" --benchmark "$root/BENCHMARK.json" "$@"
fi

workload="" seed=1 seconds="" trace=0 out="" smoke=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "sleepbench: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -n "$smoke" ]]; then
  workload="${workload:-all}"
  seconds="${seconds:-1}"
fi
seconds="${seconds:-10}"
if [[ -z "$workload" ]]; then
  echo "sleepbench: --workload NAME|all is required" >&2
  exit 2
fi

jobs="$(nproc)"
mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >"$build/configure.log" 2>&1 ||
    { echo "sleepbench: configure failed (see $build/configure.log)" >&2; exit 2; }
fi
cmake --build "$build" -j "$jobs" >"$build/build.log" 2>&1 ||
  { echo "sleepbench: build failed (see $build/build.log)" >&2; exit 2; }

# Provenance: the commit when this is a git checkout of its own, and a
# digest of the benchmarked sources either way.
commit="unknown"
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [[ "$top" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
  git -C "$root" diff --quiet HEAD -- src bench/sleepbench 2>/dev/null ||
    commit="$commit-dirty"
fi
source_digest="$(cd "$root" &&
  find src bench/sleepbench -type f \( -name '*.cc' -o -name '*.h' \
    -o -name CMakeLists.txt \) -print0 | sort -z | xargs -0 sha256sum |
  sha256sum | cut -c1-16)"

run_one() {  # workload, result file
  "$build/sleepbench" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" $smoke --out "$2" \
    --references "$here/references.txt" \
    --commit "$commit" --source "$source_digest"
}

mode="e2e"
[[ "$trace" == "1" ]] && mode="traced"
[[ -n "$smoke" ]] && mode="$mode-smoke"
if [[ "$workload" == "all" ]]; then
  dir="${out:-$build/results}"
  mkdir -p "$dir"
  status=0
  for name in probe_campaign store_campaign reanalyze checkpoint_resume; do
    run_one "$name" "$dir/$name-seed$seed-$mode-$(date +%s%N).json" || status=$?
  done
  exit "$status"
fi
if [[ -z "$out" ]]; then
  mkdir -p "$build/results"
  out="$build/results/$workload-seed$seed-$mode-$(date +%s%N).json"
fi
run_one "$workload" "$out"
