"""Compare the stopping time of two source trees in one process, call pair by
call pair.

Usage: python tools/ab_stopping.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are directories that each hold a `haarmult`
package (a checkout's `src`), imported side by side as `tools/ab_ops.py`
imports them. Each tree builds the same inputs: the sparse-deep bench
expansions 0-3 (max level 20, on the atoms), the same draw at max level 40,
the root with 4,096 adjacent level-40 rows (the clustered support), the
chain of [0, 2^-l) for l = 0 .. 61, and the deep-hardy bench expansion 0
(max level 14, on the leaves). On each, both trees' `(block, top_rows)`
from `atomic._stopping_time` must be equal, else the tool stops with an
AssertionError. Then N call pairs run per input (default 200), on the grid
of its support built once beforehand; the parent's call goes first on even
pairs and the change's on odd ones. Per input one line gives the median
call time of each tree in milliseconds, their ratio change / parent and how
many pairs the change won. Times are raw `time.perf_counter` readings, so
only the ratio and the pairs won carry over between hosts.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from ab_ops import INPUTS, _import_as, _load_workloads


def _inputs(hm, workloads) -> dict:
    """The named expansions, built in the tree `hm`."""
    interval = hm.DyadicInterval
    deep = workloads.WORKLOADS["sparse-deep"](hm)
    inputs = {f"sparse-deep {seed}": deep.expansion(seed) for seed in INPUTS}
    deep.max_level = 40
    inputs["sparse L40"] = deep.expansion(0)
    values = np.random.default_rng(40).standard_normal(4096).tolist()
    clustered = {interval(40, j): value for j, value in enumerate(values)}
    inputs["clustered L40"] = hm.HaarExpansion(40, 1, {interval(0, 0): 1.0, **clustered})
    chain = {interval(level, 0): 2.0 ** (level / 4) for level in range(62)}
    inputs["chain L61"] = hm.HaarExpansion(61, 1, chain)
    inputs["deep-hardy 0"] = workloads.WORKLOADS["deep-hardy"](hm).expansion(0)
    return inputs


def compare(name: str, calls: list, pairs: int) -> str:
    """One input's equality check and timed pairs, as one output line."""
    parent, change = (run(*args) for run, *args in calls)
    assert all(map(np.array_equal, parent, change)), f"{name}: the stopping times differ"
    times: list[list[float]] = [[], []]
    for k in range(pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            run, *args = calls[side]
            start = time.perf_counter()
            run(*args)
            times[side].append(time.perf_counter() - start)
    parent, change = map(statistics.median, times)
    won = sum(b < a for a, b in zip(*times))
    return (
        f"{name}: parent {parent * 1e3:.3f} ms, change {change * 1e3:.3f} ms, "
        f"ratio {change / parent:.3f}, change won {won}/{pairs}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=200)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be positive, got {args.pairs}")
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [
                _import_as(args.parent_src, "haarmult_parent", Path(tmp)),
                _import_as(args.change_src, "haarmult_change", Path(tmp)),
            ]
            sides = [_inputs(hm, workloads) for hm in trees]
            for name in sides[0]:
                calls = [
                    (hm.atomic._stopping_time, u, hm.haar._support_grid(u))
                    for hm, u in ((hm, side[name]) for hm, side in zip(trees, sides))
                ]
                print(compare(name, calls, args.pairs), flush=True)
        finally:
            sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
