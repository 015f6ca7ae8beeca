"""Measure the benchmark over several seeds and write its medians, quartiles
and spreads (the distance between the quartiles as a share of the median).

    python3 bench/baseline.py --seeds 3,17,29,44,58,71,86,93,105,120 --out bench/baseline.json

Each workload runs once per seed untraced and once traced (on the first
seed), each run in its own process through run.py, so the figures are the
ones the benchmark command prints. A run that fails or is not correct stops
the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct: {line}")
    detail = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"line": line, "detail": detail}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    result = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workload or WORKLOADS:
        runs = [bench(name, seed, seconds, 0) for seed in args.seeds]
        traced = bench(name, args.seeds[0], seconds, 1)
        metrics = runs[0]["line"]["metrics"]
        result["machine"] = runs[0]["detail"]["machine"]
        result["workloads"][name] = {
            "end_to_end": {
                metric: dict(unit=metrics[metric]["unit"], **summary(
                    [r["line"]["metrics"][metric]["value"] for r in runs]))
                for metric in metrics
            },
            "ops_per_run": [r["line"]["attempted"] for r in runs],
            "tail_percentile": [r["detail"]["tail_percentile"] for r in runs],
            "facts": runs[0]["detail"]["ops"][0]["facts"],
            "per_layer": {k: v["value"] for k, v in traced["line"]["metrics"].items()},
            "trace_overhead": traced["line"]["metrics"]["trace.overhead"]["value"],
        }
        for metric, stats in result["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
