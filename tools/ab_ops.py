"""Compare the bench ops of two source trees in one process, op pair by op pair.

Usage: python tools/ab_ops.py PARENT_SRC CHANGE_SRC [WORKLOAD ...] [--pairs N] [--setup]

PARENT_SRC and CHANGE_SRC are directories that each hold a `haarmult`
package (a checkout's `src`). Each package is copied into one temporary
directory under its own name and imported from there, so both trees run in
this process. `bench/workloads.py` is loaded from this repository as it is.

For each workload (default: all of them), each tree draws bench inputs 0-3
and the two trees' summaries of one op on each must be equal, else the tool
stops with an AssertionError. Then N op pairs run (default 200) on inputs
0, 1, 2, 3, 0, ... in turn; the parent's op goes first on even pairs and
the change's on odd ones. Per workload one line gives the median op time of
each tree, their ratio change / parent and how many pairs the change won
(its op was faster), and then each tree's minor page faults per op: the
mean `ru_minflt` delta of this process over the tree's timed calls. A
fault count that differs between the trees shows a different heap history
(say, glibc trimming and regrowing the heap), which moves latency apart
from the code each op runs. Times are raw `time.perf_counter` seconds, with
no host-speed scaling, so only the ratio and the pairs won carry over
between hosts.

With `--setup` the pairs time the workload's `make_input`, the input draw
of the bench's set-up, in place of its op, on the same inputs in the same
order. Before timing, both trees' inputs must be equal: each expansion's
support and value bytes, each array's bytes, and anything else as it is.
The line names the workload as `NAME make_input`.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
INPUTS = range(4)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_as(src: str, name: str, into: Path):
    """The `haarmult` package under `src`, copied to `into` as `name`, with
    its `cli` module imported, as the workloads read it."""
    shutil.copytree(
        Path(src) / "haarmult", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def _timed(run, *args) -> tuple[float, int]:
    """The call's seconds and the minor page faults this process took in it."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run(*args)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _drawn(value):
    """What of a drawn input must be equal between the trees: an
    expansion's support and value bytes, an array's bytes, and each item of
    a tuple in turn; anything else as it is."""
    if hasattr(value, "support"):
        return value.support, value.values.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_drawn, value))
    return value.tobytes() if hasattr(value, "tobytes") else value


def compare(name: str, trees: list, workloads, pairs: int, setup: bool = False) -> str:
    """One workload's equality check and timed pairs, as one output line:
    of its ops, or with `setup` of its input draws."""
    sides = [workloads.WORKLOADS[name](hm) for hm in trees]
    inputs = [[side.make_input(seed) for seed in INPUTS] for side in sides]
    if setup:
        for seed in INPUTS:
            parent, change = (_drawn(drawn[seed]) for drawn in inputs)
            assert parent == change, f"{name}: the inputs differ on input {seed}"
        runs = [[(side.make_input, seed) for seed in INPUTS] for side in sides]
        name = f"{name} make_input"
    else:
        args = [list(map(side.prepare, drawn)) for side, drawn in zip(sides, inputs)]
        for seed in INPUTS:
            parent, change = (side.summarize(side.op(*a[seed])) for side, a in zip(sides, args))
            assert parent == change, f"{name}: the summaries differ on input {seed}"
        runs = [[(side.op, *a) for a in side_args] for side, side_args in zip(sides, args)]
    times: list[list[float]] = [[], []]
    faults = [0, 0]
    for k in range(pairs):
        seed = INPUTS[k % len(INPUTS)]
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            seconds, minflt = _timed(*runs[side][seed])
            times[side].append(seconds)
            faults[side] += minflt
    parent, change = map(statistics.median, times)
    won = sum(b < a for a, b in zip(*times))
    return (
        f"{name}: parent {parent:.6f} s, change {change:.6f} s, "
        f"ratio {change / parent:.3f}, change won {won}/{pairs}, "
        f"minor faults per op parent {faults[0] / pairs:.1f}, change {faults[1] / pairs:.1f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--setup", action="store_true", help="time make_input, not the op")
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    names = args.workloads or sorted(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    if args.pairs < 1:
        parser.error(f"--pairs must be positive, got {args.pairs}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [
                _import_as(args.parent_src, "haarmult_parent", Path(tmp)),
                _import_as(args.change_src, "haarmult_change", Path(tmp)),
            ]
            for name in names:
                print(compare(name, trees, workloads, args.pairs, args.setup), flush=True)
        finally:
            sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
