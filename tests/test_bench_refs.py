"""The benchmark's call surface and reference outputs: one op of each
workload in `bench/workloads.py` on input seed 0, compared with
`bench/refs.json` as the benchmark's correctness gate compares it (exact
digest, floats to a relative 1e-9). Reads `bench/` and writes nothing there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import haarmult
import haarmult.cli
from haarmult import atomic, cli, dyadic, haar, pietsch, pisier

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFS = json.loads((BENCH / "refs.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_matches_reference(name):
    workload = workloads.WORKLOADS[name](haarmult)
    out = workload.op(*workload.prepare(workload.make_input(0)))
    ok, exact, floats, _ = workload.summarize(out)
    want = REFS[name]["0"]
    assert ok
    assert exact == want["exact"]
    assert workloads.floats_match(floats, want["floats"])


# grids built per op: each result keeps the grid it was built on, leaves
# or atoms, and every later check on u sums on it. deep-hardy and
# sparse-deep: decompose and weights build one each; factor-sampling: the
# measure inside factorize builds the one its factors, checks and samples
# read; verify-suite: u's grid (its decomposition, Hardy measure and TL
# measure keep it) and uv's
GRIDS_PER_OP = {"sparse-deep": 2, "deep-hardy": 2, "factor-sampling": 1, "verify-suite": 2}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_grids_per_op(name, grid_builds):
    workload = workloads.WORKLOADS[name](haarmult)
    args = workload.prepare(workload.make_input(0))
    grid_builds.clear()
    workload.op(*args)
    assert len(grid_builds) == GRIDS_PER_OP[name]


# the candidate rows `x0_norm_estimate` runs exactly per factor-sampling op
# on bench inputs 0-3, one list entry per exact block: y alone, and the last
# block when it holds fewer than `pisier._SCREEN_MIN_ENTRIES` sampled entries
# (input 1's one row of 4042). Every call is certified, and the L^q reach of
# every other block lies below y's peak, so it takes no cell sums and never
# runs exactly: the `_cells` calls per op are those of the exact blocks
EXACT_ROWS_PER_OP = [[1], [1, 1], [1], [1]]


def test_exact_rows_per_factor_sampling_op(monkeypatch):
    workload = workloads.WORKLOADS["factor-sampling"](haarmult)
    blocks, calls = [], []
    exact, cells = pisier._Chain.exact, pisier._cells

    def counted(chain, exponents, with_y):
        blocks.append((0 if exponents is None else len(exponents)) + with_y)
        return exact(chain, exponents, with_y)

    def summed(grid, values):
        calls.append(len(values))
        return cells(grid, values)

    monkeypatch.setattr(pisier._Chain, "exact", counted)
    monkeypatch.setattr(pisier, "_cells", summed)
    rows, cell_sums = [], []
    for seed in range(4):
        args = workload.prepare(workload.make_input(seed))
        blocks.clear()
        calls.clear()
        workload.op(*args)
        rows.append(list(blocks))
        cell_sums.append(list(calls))
    assert rows == EXACT_ROWS_PER_OP
    assert cell_sums == EXACT_ROWS_PER_OP


def test_verify_suite_screens_no_block(monkeypatch):
    # verify's one block of 20 samples over about 60 support rows stays
    # below `pisier._SCREEN_MIN_ENTRIES`, so it runs exactly at once, and
    # the call never reads its certificate
    screened, exact_rows = [], []
    exact = pisier._Chain.exact

    def counted(chain, exponents, with_y):
        exact_rows.append(len(exponents) + with_y)
        return exact(chain, exponents, with_y)

    monkeypatch.setattr(pisier._Chain, "reach", lambda *args: screened.append(args))
    monkeypatch.setattr(pisier._Chain, "certified", property(screened.append))
    monkeypatch.setattr(pisier._Chain, "exact", counted)
    workload = workloads.WORKLOADS["verify-suite"](haarmult)
    workload.op(*workload.prepare(workload.make_input(0)))
    assert screened == [] and exact_rows == [21]


# calls per op of the stopping time, the verification (which `decompose`
# runs too) and the Hardy norm, `_norm` at q None: a factorization hands
# `x0_norm_estimate` the measure it was built from, and a measure hands the
# Hardy and vector checks the norm its verification computed, so nothing is
# decomposed or normed twice
CALLS_PER_OP = {
    "sparse-deep": {"_stopping_time": 2, "verify_decomposition": 3, "_norm": 3},
    "deep-hardy": {"_stopping_time": 2, "verify_decomposition": 3, "_norm": 3},
    "factor-sampling": {"_stopping_time": 1, "verify_decomposition": 1, "_norm": 1},
    "verify-suite": {"_stopping_time": 3, "verify_decomposition": 3, "_norm": 3},
}


def _counting(calls, fn_name, fn):
    def counted(*args):
        calls[fn_name] += fn_name != "_norm" or args[2] is None  # q None: Hardy
        return fn(*args)

    return counted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_calls_per_op(name, monkeypatch):
    workload = workloads.WORKLOADS[name](haarmult)
    args = workload.prepare(workload.make_input(0))
    calls = dict.fromkeys(CALLS_PER_OP[name], 0)
    for fn_name in calls:
        # every module that binds the name, the package's own binding too,
        # so no import escapes the count
        for module in (haar, dyadic, atomic, pietsch, pisier, cli, haarmult):
            fn = getattr(module, fn_name, None)
            if fn is not None:
                monkeypatch.setattr(module, fn_name, _counting(calls, fn_name, fn))
    workload.op(*args)
    assert calls == CALLS_PER_OP[name]
