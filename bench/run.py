"""haarmult benchmark: one workload per fresh process, end-to-end metrics by
default, per-layer metrics from a traced run with --trace 1.

    python3 bench/run.py --workload deep-hardy --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 20

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs every workload untraced and traced,
prints a table with the tracing overhead, and ends with the same kind of
object, its metric names prefixed by the workload. Detailed results (every
op's latency, input seed and instance facts, the machine facts) go to
.bench_out/ in the checkout, and so do the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("verify-suite", "deep-hardy", "sparse-deep", "factor-sampling")
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 2  # set-up-only processes, besides the worker's own set-up
# A run must end within 180 s even if a process hangs.
SETUP_TIMEOUT_S = 25
WORKER_TIMEOUT_S = 170 - SETUP_REPEATS * SETUP_TIMEOUT_S


def worker_env() -> dict:
    """Thread caps for BLAS and OpenMP, set before the worker imports numpy."""
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = cap
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list[str], timeout: float) -> dict:
    """Run the worker in a fresh process and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value. With ten samples or fewer no percentile qualifies, and the slowest
    op (percentile 100) stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(raw: dict, scaled: bool) -> dict:
    """The end-to-end metrics, every time in reference seconds if `scaled`
    (hostspeed.py), else in seconds as measured. Op time excludes the
    host-speed kernel blocks between calls."""
    latencies = raw["scaled_latencies" if scaled else "latencies"]
    key = "scaled_s" if scaled else "raw_s"
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[1],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(s[key] for s in raw["setups"]),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 mutant: str | None = None) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT / f"{name}-seed{seed}.spans.jsonl")]
    if mutant:
        args += ["--inject-mutant", mutant]
    OUT.mkdir(exist_ok=True)
    # Set-up repeats matter only for the end-to-end metrics, not a traced run.
    setups = [call_worker(["--setup-only", *args[:4], "--warmup-index", str(i + 1)],
                          SETUP_TIMEOUT_S)
              for i in range(0 if trace else SETUP_REPEATS)]
    raw = call_worker(args, WORKER_TIMEOUT_S)
    raw["setups"] = setups + [raw["setup"]]
    raw["raw_end_to_end"] = end_to_end(raw, scaled=False)
    # Traced ops are not scaled: their times are only for the layers.
    raw["end_to_end"] = end_to_end(raw, scaled=not trace)
    raw["tail_percentile"] = tail(raw["latencies"])[0]
    raw["correct"] = all(s["warmup_ok"] for s in raw["setups"]) and raw["failed"] == 0
    if trace:
        metrics = {k: v for k, v in raw["layers"].items() if k != "spans"}
    else:
        metrics = raw["end_to_end"]
    raw["metrics"] = metrics
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(raw, indent=1))
    return raw


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric == "trace.overhead":
        return "ratio"
    return "count"


def describe(raw: dict) -> list[str]:
    m = raw["machine"]
    e2e = raw["end_to_end"]
    measured = raw["raw_end_to_end"]
    facts = [op["facts"] for op in raw["ops"]]
    fail_ratio = raw["failed"] / raw["attempted"]
    lines = [
        f"machine: nproc {m['nproc']}, {m['cpu']}, caches {m['caches']}, "
        f"python {m['python']}, numpy {m['numpy']}, {m['blas']} "
        f"({m['blas_threads']} threads, cap {m['thread_cap']})",
        f"{raw['workload']} seed {raw['seed']} trace {raw['trace']}: "
        f"{raw['attempted']} ops in {raw['wall_s']:.2f} s, "
        f"fail_ratio {fail_ratio:g} ({raw['failed']}/{raw['attempted']})",
        "  " + " | ".join(f"{k} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items())
        + f" | op_tail_s is p{raw['tail_percentile']:.1f} of {len(raw['latencies'])} ops",
    ]
    if not raw["trace"]:
        lines += [
            "  as measured, before scaling to reference seconds: "
            + " | ".join(f"{k} {v:.6g}" for k, v in measured.items() if k != "peak_rss_mb")
            + f" | op time scaled by {_scale_range(raw['ops'])}",
        ]
    lines += [
        f"  instances: max_level {facts[0]['max_level']}, support "
        f"{_spread(facts, 'support')}, leaves/support {_spread(facts, 'leaves_per_support')}, "
        f"blocks {_spread(facts, 'blocks')}",
    ]
    lines += [f"  failed op {f['op']} (seed {f['seed']}): {f['reason']}" for f in raw["failures"]]
    if raw["trace"]:
        lines.append(f"  tracing overhead: traced/untraced ops_per_s = "
                     f"{raw['layers']['trace.overhead']:.4f}")
        lines += [f"  {k} {v:.6g} {unit(k)}" for k, v in raw["metrics"].items()]
    return lines


def _scale_range(ops: list[dict]) -> str:
    scales = [op["scaled_s"] / op["latency_s"] for op in ops]
    return f"{min(scales):.3f}..{max(scales):.3f}"


def _spread(facts: list[dict], key: str) -> str:
    values = [f[key] for f in facts if f.get(key) is not None]
    if not values:
        return "n/a"
    return f"{min(values):.4g}..{max(values):.4g}"


def with_units(metrics: dict, prefix: str = "") -> dict:
    return {prefix + k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mutant", choices=("scale-omega",), default=None,
                        help="double the weights of the first timed op")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.trace and args.inject_mutant:
        parser.error("--inject-mutant applies to untraced runs only")
    if not (ROOT / "src" / "haarmult" / "__init__.py").is_file():
        print(f"error: no haarmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        raw = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           args.inject_mutant)
        print("\n".join(describe(raw)))
        print(result_line(raw["correct"], raw["attempted"], raw["failed"],
                          with_units(raw["metrics"])))
        return 0

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, 0, args.inject_mutant)
        traced = run_workload(name, args.seed, args.seconds, 1)
        for raw in (plain, traced):
            print("\n".join(describe(raw)))
            correct &= raw["correct"]
            attempted += raw["attempted"]
            failed += raw["failed"]
        metrics.update(with_units(plain["metrics"], f"{name}."))
        metrics.update(with_units({"trace.overhead": traced["layers"]["trace.overhead"]},
                                  f"{name}."))
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
