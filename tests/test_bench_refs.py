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


# grids built per op: sparse-deep's verification and checks reuse the atom
# grid its decomposition and measure keep (decompose and weights build one
# each); the other workloads sum on leaf grids, which no result keeps
GRIDS_PER_OP = {"sparse-deep": 2, "deep-hardy": 11, "factor-sampling": 2, "verify-suite": 5}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_grids_per_op(name, monkeypatch):
    workload = workloads.WORKLOADS[name](haarmult)
    args = workload.prepare(workload.make_input(0))
    builds = []
    init = haarmult.haar._Grid.__init__
    monkeypatch.setattr(
        haarmult.haar._Grid, "__init__", lambda grid, *a: builds.append(a) or init(grid, *a)
    )
    workload.op(*args)
    assert len(builds) == GRIDS_PER_OP[name]


# calls per op of the stopping time, the verification core and the Hardy
# norm: a factorization hands `x0_norm_estimate` the measure it was built
# from, and a measure hands the Hardy and vector checks the norm its
# verification computed, so nothing is decomposed or normed twice
CALLS_PER_OP = {
    "sparse-deep": {"_stopping_time": 2, "_verify_rows": 3, "_hp_norm": 3},
    "deep-hardy": {"_stopping_time": 2, "_verify_rows": 3, "_hp_norm": 3},
    "factor-sampling": {"_stopping_time": 1, "_verify_rows": 1, "_hp_norm": 1},
    "verify-suite": {"_stopping_time": 3, "_verify_rows": 3, "_hp_norm": 3},
}


def _counting(calls, fn_name, fn):
    def counted(*args):
        calls[fn_name] += 1
        return fn(*args)

    return counted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_calls_per_op(name, monkeypatch):
    workload = workloads.WORKLOADS[name](haarmult)
    args = workload.prepare(workload.make_input(0))
    calls = dict.fromkeys(CALLS_PER_OP[name], 0)
    for fn_name in calls:
        # every module that binds the name, so no import escapes the count
        for module in (haar, dyadic, atomic, pietsch, pisier, cli):
            fn = getattr(module, fn_name, None)
            if fn is not None:
                monkeypatch.setattr(module, fn_name, _counting(calls, fn_name, fn))
    workload.op(*args)
    assert calls == CALLS_PER_OP[name]
