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


# grids built per op: sparse-deep's checks reuse the atom grid its measure
# keeps (decompose, verify and weights build one each); the other workloads
# sum on leaf grids, which a measure does not keep
GRIDS_PER_OP = {"sparse-deep": 3, "deep-hardy": 11, "factor-sampling": 2, "verify-suite": 5}


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
