#!/usr/bin/env python3
"""Compare two directories of sleepbench result files.

    compare.py [--benchmark BENCHMARK.json] DIR_A DIR_B

A is the baseline (the parent), B the candidate. Only full-size untraced
results count. For each workload, each side's runs are taken in the order
they started and the i-th run of A is paired with the i-th run of B. Run
the two sides alternately (pairs.sh does), so that the runs of a pair see
the host at the same speed. For every workload and end-to-end metric it
prints each side's run count, median and quartiles and a verdict, using
the bounds in BENCHMARK.json and these rules:

  better      at least 10 pairs, B wins at least 9 in 10 of them (ties
              count for neither side), and the medians differ by more
              than A's interquartile range;
  worse       B's median is worse than A's by more than the bound;
  unresolved  the run-to-run spread (IQR / median, either side) is wider
              than the bound, unless every B run beats every A run;
  unchanged   otherwise.

It also prints the share of failed operations on each side. It refuses
to compare results taken with different worker or CPU counts, or runs of
one workload with different sizes or run lengths. Exit code: 0, or 1 when
any verdict is "worse" or an operation failed, 2 on refusal.
"""
import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10


def refuse(message):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(directory):
    """Full-size untraced results in `directory`, in the order they started."""
    results = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            refuse(f"cannot read {path}: {error}")
        if (result.get("schema") == "sleepbench-result/1"
                and result.get("mode") == "e2e" and not result.get("smoke")):
            results.append(result)
    if not results:
        refuse(f"no full-size untraced sleepbench results in {directory}")
    return sorted(results, key=lambda r: r["started_unix_ns"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    return b > a if direction == "higher" else b < a


def verdict(a, b, direction, bound):
    """a, b: one side's values in run order. Returns (verdict, detail)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(x, y, direction))
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = -change if direction == "higher" else change
    spread = max((q3a - q1a) / med_a if med_a else 0.0,
                 (q3b - q1b) / med_b if med_b else 0.0)
    detail = (f"B/A {change:+.1%}, wins {wins}/{len(pairs)} pairs, "
              f"spread {spread:.1%}, bound {bound:.0%}")
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and better(med_a, med_b, direction)
            and abs(med_b - med_a) > q3a - q1a):
        return "better", detail
    if worse_by > bound:
        return "worse", detail
    every_b_better = all(better(x, y, direction) for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved", detail
    return "unchanged", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=str(
        pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()

    metrics = json.loads(pathlib.Path(args.benchmark).read_text())["end_to_end"]
    side_a, side_b = load(args.a), load(args.b)
    hardware = {(r["provenance"]["workers"], r["provenance"]["nproc"])
                for r in side_a + side_b}
    if len(hardware) != 1:
        refuse("results were taken with different (workers, nproc): "
               f"{sorted(hardware)}")

    workloads = sorted({r["workload"] for r in side_a} & {r["workload"] for r in side_b})
    runs = {w: ([r for r in side_a if r["workload"] == w],
                [r for r in side_b if r["workload"] == w]) for w in workloads}
    for workload, (runs_a, runs_b) in runs.items():
        settings = {json.dumps([r["sizes"], r["run_seconds"]], sort_keys=True)
                    for r in runs_a + runs_b}
        if len(settings) != 1:
            refuse(f"{workload} runs differ in sizes or run length: {sorted(settings)}")

    status = 0
    print(f"{'workload':18} {'metric':22} {'A n':>3} {'A median':>11} {'A q1..q3':>23}"
          f" {'B n':>3} {'B median':>11} {'B q1..q3':>23}  verdict")
    for workload, (runs_a, runs_b) in runs.items():
        for metric in metrics:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in runs_a]
            values_b = [r["metrics"][name]["value"] for r in runs_b]
            result, detail = verdict(values_a, values_b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            cells = []
            for values in (values_a, values_b):
                q1, q3 = quartiles(values)
                cells.append(f"{len(values):>3} {statistics.median(values):>11.4g} "
                             f"{f'{q1:.4g}..{q3:.4g}':>23}")
            print(f"{workload:18} {name:22} {cells[0]} {cells[1]}  {result} ({detail})")
        unpaired = abs(len(runs_a) - len(runs_b))
        other_seed = sum(1 for x, y in zip(runs_a, runs_b) if x["seed"] != y["seed"])
        if unpaired or other_seed:
            print(f"{workload:18} note: {unpaired} unpaired runs, "
                  f"{other_seed} pairs of different seeds")
    for label, side in (("A", side_a), ("B", side_b)):
        attempted = sum(r["ops_attempted"] for r in side)
        failed = sum(r["ops_failed"] for r in side)
        incorrect = sum(1 for r in side if not r["correct"])
        share = failed / attempted if attempted else 0.0
        print(f"ops_failed {label}: {failed}/{attempted} ({share:.3%}); "
              f"runs not correct: {incorrect}/{len(side)}")
        if failed or incorrect:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
