#!/usr/bin/env bash
# Benchmark smoke: builds bench/sleepbench against src/ and runs all four
# workloads at their smoke sizes (bench/sleepbench/run.sh --smoke), then
# requires every workload to report `correct` with zero failed
# operations. A smoke run checks its output digest against
# bench/sleepbench/references.txt, so a src/ change that breaks the
# benchmark's build or moves a digest fails here, not first in a
# benchmark comparison. run.sh exits 0 for an untraced run whatever its
# verdict, so the verdicts are read from the one-line JSON summaries it
# prints, one per workload.
#
# Usage: scripts/sleepbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

log="$(mktemp)"
trap 'rm -f "${log}"' EXIT
bench/sleepbench/run.sh --smoke | tee "${log}"
python3 - "${log}" <<'PY'
import json
import sys

summaries = [json.loads(line) for line in open(sys.argv[1])
             if line.startswith('{"correct"')]
bad = [s for s in summaries if not s["correct"] or s["failed"] != 0]
if len(summaries) != 4 or bad:
    print(f"sleepbench smoke: {len(summaries)} of 4 workloads reported, "
          f"{len(bad)} not correct or with failed operations",
          file=sys.stderr)
    sys.exit(1)
print("sleepbench smoke OK: 4 workloads correct, 0 failed operations")
PY
