#!/usr/bin/env python3
"""Summarize sleepbench result directories into recorded.json.

    record.py RESULTS_DIR... > bench/sleepbench/recorded.json

Each directory's untraced results are one set of runs: per workload and
end-to-end metric the set gives the median, quartiles and spread (IQR /
median). Sets stay apart because a shared host's speed drifts between
them. Traced results give each workload's gates, stage shares and
per-layer metrics. All runs must come from one hardware and build
configuration.
"""
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "sim.generate.self_s": "setup_s on probe_campaign, reanalyze",
    "transport.self_s": "block_rounds_per_s on probe_campaign; nothing elsewhere",
    "transport.calls": "block_rounds_per_s on probe_campaign; nothing elsewhere",
    "probe.round.self_s": "block_rounds_per_s on probe_campaign",
    "probe.probes_per_round": "must stay equal: a change is a science change",
    "analyze.finish.self_s": "block_rounds_per_s on probe_campaign",
    "dataset.write.self_s": "block_rounds_per_s, artifact_mb on probe_campaign",
    "dataset.bytes": "artifact_mb on probe_campaign",
    "dataset.map.self_s": "classify_blocks_per_s on reanalyze; resume_s on probe_campaign, reanalyze",
    "executor.overhead_frac": "block_rounds_per_s on probe_campaign (executor vs bare per-block loop, both untraced)",
    "store.seed.self_s": "block_rounds_per_s on store_campaign, checkpoint_resume",
    "sim.round.self_s": "block_rounds_per_s on store_campaign, checkpoint_resume",
    "estimator.observe.self_s": "block_rounds_per_s on store_campaign (large), checkpoint_resume (small)",
    "series.append.self_s": "block_rounds_per_s on store_campaign (large), checkpoint_resume (small)",
    "segment.join_wait_s": "block_rounds_per_s on store_campaign",
    "analyze.copy.self_s": "classify_blocks_per_s on store_campaign, checkpoint_resume, reanalyze",
    "analyze.regularize.self_s": "classify_blocks_per_s on store_campaign, checkpoint_resume",
    "analyze.trim.self_s": "classify_blocks_per_s on store_campaign, checkpoint_resume",
    "analyze.stationarity.self_s": "classify_blocks_per_s on store_campaign, checkpoint_resume, reanalyze",
    "analyze.fft.self_s": "classify_blocks_per_s on store_campaign, checkpoint_resume, reanalyze",
    "checkpoint.encode.self_s": "block_rounds_per_s on checkpoint_resume; little on store_campaign",
    "checkpoint.encode.p50_ms": "block_rounds_per_s on checkpoint_resume",
    "checkpoint.bytes": "artifact_mb, block_rounds_per_s on checkpoint_resume",
    "checkpoint.write.self_s": "block_rounds_per_s on checkpoint_resume; little on store_campaign",
    "checkpoint.write.p50_ms": "block_rounds_per_s on checkpoint_resume",
    "storage.bytes_written": "block_rounds_per_s on checkpoint_resume",
    "checkpoint.map.self_s": "resume_s on store_campaign, checkpoint_resume",
    "checkpoint.decode.self_s": "resume_s on store_campaign, checkpoint_resume",
    "store.digest.self_s": "resume_s on store_campaign, checkpoint_resume",
    "worker.idle_s": "block_rounds_per_s on the campaign workloads",
    "scaling.efficiency": "which workload a thread-pool change helps",
    "trace.coverage": "gate: 0.95..1.05 (with trace.phase_share_drift <= 0.10)",
    "trace.overhead": "reported",
}


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main():
    sets = []
    for directory in sys.argv[1:]:
        runs = [json.loads(p.read_text())
                for p in sorted(pathlib.Path(directory).glob("*.json"))]
        sets.append([r for r in runs if r.get("schema") == "sleepbench-result/1"
                     and not r["smoke"]])
    results = [r for runs in sets for r in runs]
    configs = {json.dumps({k: v for k, v in r["provenance"].items()
                           if k not in ("commit", "source")}, sort_keys=True)
               for r in results}
    if len(configs) != 1:
        sys.exit(f"record: results come from {len(configs)} configurations")
    benchmark = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    workloads = {}
    for name in [w["name"] for w in benchmark["workloads"]]:
        traced = [r for r in results if r["workload"] == name and r["mode"] == "traced"]
        entry = {"sizes": None, "sets": []}
        for runs in sets:
            e2e = [r for r in runs if r["workload"] == name and r["mode"] == "e2e"]
            if not e2e:
                continue
            entry["sizes"] = e2e[0]["sizes"]
            one = {"seeds": sorted({r["seed"] for r in e2e}),
                   "ops_failed": sum(r["ops_failed"] for r in e2e),
                   "metrics": {}}
            for metric, bound in bounds.items():
                one["metrics"][metric] = dict(
                    summary([r["metrics"][metric]["value"] for r in e2e]),
                    unit=e2e[0]["metrics"][metric]["unit"], bound=bound)
            truths = [r["truth"] for r in e2e if "truth" in r]
            if truths:
                one["truth"] = {k: summary([t[k] for t in truths])
                                for k in ("precision", "recall")}
            entry["sets"].append(one)
        if traced:
            run = min(traced, key=lambda r: r["seed"])
            entry["traced"] = {
                "seed": run["seed"],
                "correct": run["correct"],
                "ops_failed": run["ops_failed"],
                "gates": run["gates"],
                "stages": {k: {"busy_share": v["busy_share"], "wall_share": v["wall_share"]}
                           for k, v in run["stages"].items()},
                "per_layer": {k: v["value"] for k, v in run["metrics"].items()},
            }
        workloads[name] = entry

    provenance = {k: v for k, v in results[0]["provenance"].items()
                  if k not in ("commit", "source")}
    print(json.dumps({
        "seeds": {"default": 1, "held_out": 2},
        "build": "cmake -S bench/sleepbench -B build-bench -DCMAKE_BUILD_TYPE=RelWithDebInfo"
                 " && cmake --build build-bench -j",
        "run": "bash bench/sleepbench/run.sh --workload NAME --seed N"
               f" --seconds {benchmark['run_seconds']} --trace 0|1",
        "compare": "bash bench/sleepbench/pairs.sh PARENT_ROOT CHANGE_ROOT OUT_DIR",
        "provenance": provenance,
        "workloads": workloads,
        "moves": MOVES,
    }, indent=2))


if __name__ == "__main__":
    main()
