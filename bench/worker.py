"""Run one workload in this process and print its raw results as one JSON line.

Started by run.py, which sets the thread caps and PYTHONPATH before numpy is
imported. Phases: set-up (import haarmult, draw the input pool, one untimed
warm-up op), the timed phase, then the instance facts. Ops are a closed loop
with one client: each starts when the previous one ends. Set-up and untraced
ops make every haarmult call through a hostspeed.Meter, which also scales
each call's time to reference seconds (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import haarmult
    import haarmult.cli

    elapsed = perf_counter() - start
    source = (ROOT / "src" / "haarmult").resolve()
    if Path(haarmult.__file__).resolve().parent != source:
        raise SystemExit(f"haarmult imported from {haarmult.__file__}, not {source}")
    return haarmult, elapsed


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_facts(np) -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower():
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return query()
    return None


class Gate:
    """Compares each op's outputs with the shipped reference for its input
    seed, or else with the first output this run saw for that input."""

    def __init__(self, workload, shipped: dict, floats_match) -> None:
        self.workload = workload
        self.floats_match = floats_match
        self.shipped = shipped
        self.seen: dict[int, tuple[str, list[float]]] = {}
        self.blocks: dict[int, object] = {}
        self.failures: list[dict] = []

    def check(self, op: int, seed: int, index: int, out) -> bool:
        ok, exact, floats, blocks = self.workload.summarize(out)
        self.blocks.setdefault(index, blocks)
        ref = self.shipped.get(str(seed))
        want = (ref["exact"], ref["floats"]) if ref else self.seen.setdefault(index, (exact, floats))
        reason = None
        if not ok:
            reason = "a verifier returned false"
        elif exact != want[0]:
            reason = "exact outputs differ from the reference"
        elif not self.floats_match(floats, want[1]):
            reason = "float outputs differ from the reference"
        if reason:
            self.failures.append({"op": op, "seed": seed, "reason": reason})
        return reason is None

    def error(self, op: int, seed: int) -> None:
        traceback.print_exc(file=sys.stderr)
        kind = sys.exc_info()[0].__name__
        self.failures.append({"op": op, "seed": seed, "reason": f"raised {kind}"})


def set_up(args):
    """Import haarmult, draw the input pool and run the warm-up op: the set-up
    a user of one workload pays. The set-up-only processes warm up on other
    inputs than the worker, so their median is not that of one input. Returns the run's state and the set-up's
    measured and scaled seconds (hostspeed.py)."""
    hm, import_s = import_package()
    import hostspeed
    import workloads

    meter = hostspeed.Meter()  # its first kernel block follows the import
    workload = workloads.WORKLOADS[args.workload](hm)
    seeds = [args.seed + i for i in range(workload.pool)]
    pool = meter.call(lambda: [workload.make_input(seed) for seed in seeds])
    refs = json.loads((BENCH / "refs.json").read_text()).get(args.workload, {})
    state = {
        "hm": hm, "meter": meter, "workload": workload, "seeds": seeds, "pool": pool,
        "gate": Gate(workload, refs, workloads.floats_match),
    }
    gen_s = meter.raw_s
    warmup_ok = one_op(state, -1, args.warmup_index, metered=True)[1]
    setup = {
        "import_s": import_s,
        "gen_s": gen_s,
        "warmup_s": meter.raw_s - gen_s,
        "warmup_ok": warmup_ok,
        "raw_s": import_s + meter.raw_s,
        "scaled_s": import_s * hostspeed.scale(meter.first) + meter.scaled_s,
    }
    return state, setup


def one_op(state: dict, op: int, index: int, metered: bool, tracer=None, mutant=False):
    """Run op `op` on input `index` and check it. Returns its latency in
    seconds as measured, its scaled latency (None unless metered), and
    whether it passed. A metered op times each haarmult call through the
    meter, without the kernel blocks between calls."""
    workload, meter, gate = state["workload"], state["meter"], state["gate"]
    seed = state["seeds"][index]
    op_args = workload.prepare(state["pool"][index])
    raw0, scaled0 = meter.raw_s, meter.scaled_s
    start = perf_counter()
    try:
        if tracer is not None:
            out = tracer.run_op(op, workload.op, *op_args)
        elif metered:
            out = workload.op(*op_args, mutant=mutant, call=meter.call)
        else:
            out = workload.op(*op_args)
        ok = None
    except Exception:
        gate.error(op, seed)
        ok = False
    if metered:
        latency, scaled = meter.raw_s - raw0, meter.scaled_s - scaled0
    else:
        latency, scaled = perf_counter() - start, None
    if ok is None:
        ok = gate.check(op, seed, index, out)
    return latency, ok, scaled


def run(args) -> dict:
    state, setup = set_up(args)
    import numpy as np

    workload, gate, seeds = state["workload"], state["gate"], state["seeds"]
    tracer = None
    latencies: list[float] = []
    scaled: list[float] = []
    traced_s = untraced_s = 0.0
    ops = []
    start = perf_counter()
    if args.trace:
        from spans import Tracer

        tracer = Tracer(state["hm"])
        # Pairs of ops on one input, one traced and one not, alternating which
        # goes first, so the overhead ratio sees the same inputs and drift.
        # Neither is metered: kernel blocks would dilute the ratio.
        pair = 0
        while pair == 0 or perf_counter() - start < args.seconds:
            index = pair % workload.pool
            for traced in ((True, False) if pair % 2 == 0 else (False, True)):
                latency, ok, _ = one_op(state, len(ops), index, False,
                                        tracer if traced else None)
                ops.append({"index": index, "latency_s": latency, "ok": ok, "traced": traced})
                if traced:
                    traced_s += latency
                else:
                    untraced_s += latency
                    latencies.append(latency)
            pair += 1
    else:
        cycle_s = 0.0
        # An op starts only if it and its kernel blocks should end in time.
        while not ops or perf_counter() - start + cycle_s < args.seconds:
            cycle_start = perf_counter()
            index = len(ops) % workload.pool
            mutant = args.inject_mutant is not None and not ops
            latency, ok, scaled_s = one_op(state, len(ops), index, True, mutant=mutant)
            ops.append({"index": index, "latency_s": latency, "scaled_s": scaled_s, "ok": ok})
            latencies.append(latency)
            scaled.append(scaled_s)
            cycle_s = perf_counter() - cycle_start
    wall_s = perf_counter() - start

    facts = {}
    for record in ops:
        index = record["index"]
        if index not in facts:
            facts[index] = workload.facts(state["pool"][index], gate.blocks.get(index))
        record["seed"] = seeds[index]
        record["facts"] = facts[index]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "warmup_ok": setup["warmup_ok"],
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
        "failures": gate.failures,
        "wall_s": wall_s,
        "latencies": latencies,
        "scaled_latencies": scaled,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "machine": machine_facts(np),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, sum(r["traced"] for r in ops))
        result["layers"]["trace.overhead"] = untraced_s / traced_s
        if args.spans:
            tracer.write(args.spans)
    return result


# Per-layer metric -> (span name, which reduction). Counts come from the
# tracer's counters; every value is per traced op.
LAYER_SPANS = {
    "dyadic.decay_check.self_s": ("dyadic.decay_check", "self"),
    "dyadic.decay_check.total_s": ("dyadic.decay_check", "total"),
    "dyadic.decay_check.calls": ("dyadic.decay_check", "calls"),
    "dyadic.is_block.self_s": ("dyadic.is_block", "self"),
    "dyadic.is_block.calls": ("dyadic.is_block", "calls"),
    "dyadic.carleson.self_s": ("dyadic.carleson", "self"),
    "dyadic.carleson.calls": ("dyadic.carleson", "calls"),
    "haar.square_sums.self_s": ("haar.square_sums", "self"),
    "haar.q_variation.self_s": ("haar.q_variation", "self"),
    "haar.hp_norm.self_s": ("haar.hp_norm", "self"),
    "haar.hp_norm.calls": ("haar.hp_norm", "calls"),
    "haar.tl_norm.self_s": ("haar.tl_norm", "self"),
    "haar.multiply.self_s": ("haar.multiply", "self"),
    "atomic.decompose.calls": ("atomic.decompose", "calls"),
    "atomic.verify.calls": ("atomic.verify", "calls"),
    "atomic.stopping_time.self_s": ("atomic.decompose", "self"),
    "atomic.verify.self_s": ("atomic.verify", "self"),
    "pietsch.weights.self_s": ("pietsch.weights", "self"),
    "pietsch.weights.calls": ("pietsch.weights", "calls"),
    "pietsch.check.self_s": ("pietsch.check", "self"),
    "pietsch.check.calls": ("pietsch.check", "calls"),
    "pisier.factorize.self_s": ("pisier.factorize", "self"),
    "pisier.x0.self_s": ("pisier.x0", "self"),
    "cli.trial.self_s": ("cli.trial", "self"),
    "cli.dump.self_s": ("cli.dump", "self"),
}
LAYER_COUNTS = (
    "dyadic.members",
    "atomic.pieces",
    "haar.leaf_adds",
    "haar.leaf_bytes",
    "pisier.x0.cover_bytes",
)


def layer_metrics(tracer, traced_ops: int) -> dict:
    self_s, total_s, calls = tracer.self_times()
    by_kind = {"self": self_s, "total": total_s, "calls": calls}
    layers = {
        metric: by_kind[kind].get(span, 0) / traced_ops
        for metric, (span, kind) in LAYER_SPANS.items()
    }
    for metric in LAYER_COUNTS:
        layers[metric] = tracer.counts.get(metric, 0) / traced_ops
    # every span name, for the results file
    layers["spans"] = {
        name: {"self_s": self_s[name] / traced_ops, "calls": calls[name] / traced_ops}
        for name in sorted(self_s)
    }
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up (import, inputs, warm-up op) and time it")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup-index", type=int, default=0,
                        help="pool index of the warm-up op's input")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    parser.add_argument("--inject-mutant", choices=("scale-omega",), default=None)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(set_up(args)[1]))
    else:
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
