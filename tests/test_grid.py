"""The support grid of `haar`: its parent tables, searched and painted, and
its tree prefix cell sums against the search, the slice paint and the sums
they replaced (`dyadic_oracle`, `haar_oracle`), the layout of the cell sums,
and one grid per public call."""

import copy
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmult import (
    DyadicInterval,
    HaarExpansion,
    IntervalFamily,
    PietschMeasure,
    check_multiplier_bound,
    check_multiplier_bounds,
    decompose,
    factorize,
    hp_norm,
    tl_norm,
    verify_decomposition,
    weights_hp,
    weights_tl,
    x0_norm_estimate,
)
from haarmult import haar, pietsch
from haarmult.dyadic import _nearest_ancestors
from haarmult.haar import _cell_sum, _cells, _Grid, _paint, _pow, _support_grid

import dyadic_oracle
import haar_oracle


@st.composite
def supports(draw, max_level=st.integers(0, 61), size=st.integers(0, 40)):
    """(max_level, levels, positions) of distinct intervals sorted by
    (level, position). Most intervals are ancestors of a few anchor leaves,
    so they nest deeply; the rest lie anywhere."""
    top = draw(max_level)
    anchors = draw(st.lists(st.integers(0, (1 << top) - 1), min_size=1, max_size=3))
    rows = set()
    for _ in range(draw(size)):
        level = draw(st.integers(0, top))
        if draw(st.booleans()):
            position = draw(st.sampled_from(anchors)) >> (top - level)
        else:
            position = draw(st.integers(0, (1 << level) - 1))
        rows.add((level, position))
    array = np.array(sorted(rows), dtype=np.int64).reshape(len(rows), 2)
    levels, positions = array.T.copy()
    return top, levels, positions


def _values(seed, batch, n):
    """Normal draws of shape batch + (n,), with exact zeros and -0.0."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(batch + (n,))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.05] = -0.0
    return values


def _assert_cells_match(top, levels, positions, values):
    grid = _Grid(top, levels, positions)
    got, lengths = _cells(grid, values)
    want, want_lengths = haar_oracle.cells(top, levels, positions, values)
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if want_lengths is None:
        assert lengths is None
    else:
        assert np.array_equal(lengths, want_lengths)
    return grid


class TestParentTable:
    @settings(max_examples=300, deadline=None)
    @given(supports())
    def test_matches_heap_search_and_stack_walk(self, support):
        top, levels, positions = support
        got = _nearest_ancestors(levels, positions)
        assert got.tolist() == dyadic_oracle.heap_ancestors(levels, positions).tolist()
        family = IntervalFamily(
            [DyadicInterval(*row) for row in zip(levels.tolist(), positions.tolist())],
            max_level=top,
        )
        assert got.tolist() == list(dyadic_oracle.parents(family))

    def test_family_past_level_62(self):
        # Python ints there: the endpoints overflow int64
        members = [(0, 0), (63, 5), (70, 640), (70, 641), (100, 640 << 30), (100, 1 << 99)]
        family = IntervalFamily([DyadicInterval(*m) for m in members])
        assert family.parents() == dyadic_oracle.parents(family)
        assert family.parents() == (-1, 0, 1, 1, 2, 0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n):
        levels = np.zeros(n, dtype=np.int64)
        assert _nearest_ancestors(levels, levels).tolist() == [-1] * n


class TestPaint:
    """The leaf grid's one level-by-level paint against the ancestor search
    and the per-row slice paint."""

    @settings(max_examples=300, deadline=None)
    @given(supports(max_level=st.integers(0, 11), size=st.integers(0, 80)))
    def test_matches_search_and_slice_paint(self, support):
        top, levels, positions = support
        bounds = np.searchsorted(levels, np.arange(top + 2)).tolist()
        owner, parent = _paint(positions, bounds)
        assert parent.tolist() == _nearest_ancestors(levels, positions).tolist()
        assert parent.tolist() == dyadic_oracle.heap_ancestors(levels, positions).tolist()
        assert owner.tolist() == haar_oracle.leaf_owners(top, levels, positions).tolist()

    def test_leaf_grid_is_painted(self):
        u = _sparse(np.random.default_rng(7), 8, 300)
        grid = _support_grid(u)
        assert grid.lengths is None
        assert np.array_equal(grid.parent, _nearest_ancestors(u.levels, u.positions))
        assert np.array_equal(
            grid.owner, haar_oracle.leaf_owners(u.max_level, u.levels, u.positions)
        )


class TestTreeCellSums:
    """`_cells` on both grids against the (interval, atom) pairs summed with
    `np.add.at`, bit for bit, batched and not."""

    @settings(max_examples=200, deadline=None)
    @given(supports(), st.sampled_from([(), (1,), (8,), (65,)]), st.integers(0, 2**32))
    def test_deep_supports(self, support, batch, seed):
        top, levels, positions = support
        _assert_cells_match(top, levels, positions, _values(seed, batch, len(levels)))

    @settings(max_examples=200, deadline=None)
    @given(
        supports(max_level=st.integers(0, 11), size=st.integers(0, 80)),
        st.sampled_from([(1,), (8,), (65,)]),
        st.integers(0, 2**32),
    )
    def test_shallow_supports_on_both_grids(self, support, batch, seed):
        top, levels, positions = support
        _assert_cells_match(top, levels, positions, _values(seed, batch, len(levels)))

    @pytest.mark.parametrize("top, n", [(3, 0), (3, 1), (40, 0), (40, 1), (61, 1)])
    def test_empty_and_single_supports(self, top, n):
        levels = np.full(n, top // 2, dtype=np.int64)
        positions = np.full(n, 1, dtype=np.int64)
        for batch in ((), (1,), (8,), (65,)):
            _assert_cells_match(top, levels, positions, _values(n, batch, n))

    def test_both_grids_reached(self):
        rng = np.random.default_rng(4)
        dense = _sparse(rng, 6, 60)
        sparse = _sparse(rng, 40, 60)
        assert _support_grid(dense).lengths is None
        assert _support_grid(sparse).lengths is not None

    def test_owner_is_deepest_containing_row(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = _sparse(rng, int(rng.integers(20, 62)), int(rng.integers(1, 60)))
            grid = _support_grid(u)
            shift = u.max_level - u.levels
            starts = u.positions << shift
            ends = starts + (np.int64(1) << shift)
            edges = np.concatenate(([0], np.cumsum(grid.lengths)))
            assert edges[-1] == 1 << u.max_level
            for atom, edge in enumerate(edges[:-1].tolist()):
                inside = np.flatnonzero((starts <= edge) & (edge < ends))
                deepest = inside[np.argmax(u.levels[inside])] if len(inside) else -1
                assert grid.owner[atom] == deepest


class TestDenseLeafExports:
    """`_cells` on sparse supports, whose grid is the atoms: each cell's
    value repeated over its leaves (`haar_oracle.leaf_values`), for the
    squares and the q-th powers, is bit for bit the leaf sums of
    `haar_oracle.push_down`."""

    @pytest.mark.parametrize("seed", range(6))
    def test_atom_grid_matches_leaf_oracle(self, seed):
        u = _sparse(np.random.default_rng(seed), 16, 20)
        assert _support_grid(u).lengths is not None
        want = haar_oracle.push_down(16, u.levels, u.positions, u.squares)
        assert haar_oracle.leaf_values(u, u.squares).tobytes() == want.tobytes()
        for q in (0.7, 2.0, 3.0):
            powers = _pow(np.abs(u.values[:, 0]), q)
            want = haar_oracle.push_down(16, u.levels, u.positions, powers)
            assert haar_oracle.leaf_values(u, powers).tobytes() == want.tobytes()

    def test_empty_support(self):
        u = HaarExpansion(16, 1, {})
        assert _support_grid(u).lengths is not None
        want = np.zeros(1 << 16).tobytes()
        assert haar_oracle.leaf_values(u, u.squares).tobytes() == want


class TestLayout:
    def test_batch_rows_sum_as_one_row_alone(self):
        # `np.sum` over a batch row adds in the order of that row alone only
        # when the cells are C-contiguous
        rng = np.random.default_rng(6)
        for u in (_sparse(rng, 40, 300), _sparse(rng, 8, 300)):
            grid = _support_grid(u)
            values = rng.uniform(0.0, 1.0, (65, len(u.support)))
            sums, lengths = _cells(grid, values)
            assert sums.flags.c_contiguous
            batch = _cell_sum(sums**0.75, lengths)
            for k in range(65):
                row, _ = _cells(grid, values[k])
                assert row.flags.c_contiguous
                assert row.tobytes() == sums[k].tobytes()
                assert _cell_sum(row**0.75, lengths).tobytes() == batch[k].tobytes()


class TestBatchRows:
    """Batch sizes come from the grid: the tree sums and the cells it
    holds. On the atoms that is the exact atom count, so a deep sparse
    support splits K = 20 checks and the lattice estimate's candidates into
    several batches, and every output is bit for bit that of one batch."""

    def test_atom_grid_batches_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(2024)
        u = _sparse(rng, 20, 3000)
        n, grid = len(u.support), _support_grid(u)
        assert grid.lengths is not None  # the atoms
        step = haar._batch_rows(grid)
        assert step == (1 << 16) // (n + 1 + len(grid.owner)) < 20
        phis = rng.uniform(-1.0, 1.0, (20, n))
        f = factorize(u, 1.5, 3.0)
        routes = [(weights_hp(u, 1.0), 1.0, None), (weights_tl(u, 1.5, 3.0), 1.5, 3.0)]

        def outputs():
            # 41 candidates: at least three blocks of the estimate
            reports = [check_multiplier_bounds(u, p, phis, m, q=q) for m, p, q in routes]
            return repr(reports), repr(x0_norm_estimate(f, u, 40, 5))

        calls = []
        product_norms = pietsch._product_norms
        monkeypatch.setattr(
            pietsch, "_product_norms", lambda *a: calls.append(len(a[1])) or product_norms(*a)
        )
        batched = outputs()
        assert calls == [step, 20 - step] * 2
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", 1 << 40)
        assert outputs() == batched


def _sparse(rng, max_level, draws):
    levels = rng.integers(0, max_level + 1, draws)
    positions = rng.integers(0, np.left_shift(1, levels))
    values = rng.standard_normal(draws)
    coeffs = {}
    for level, position, value in zip(levels.tolist(), positions.tolist(), values.tolist()):
        coeffs.setdefault(DyadicInterval(level, position), value)
    return HaarExpansion(max_level, 1, coeffs)


class TestOneGridPerCall:
    """Each public call builds at most one grid per distinct support, and
    one in all unless a product has zero rows, which sums on its own
    support's grid. A check with a constructor's result, on the leaves or
    the atoms, builds none: the result keeps the grid it was built on."""

    @pytest.mark.parametrize("max_level", [8, 40])
    def test_public_calls(self, grid_builds, max_level):
        rng = np.random.default_rng(max_level)
        u = _sparse(rng, max_level, 300)
        assert (_support_grid(u).lengths is None) == (max_level == 8)
        n = len(u.support)
        phis = rng.uniform(-1.0, 1.0, (8, n))
        holes = phis[0].copy()
        holes[::3] = 0.0
        m, mt = weights_hp(u, 1.0), weights_tl(u, 1.5, 3.0)
        dec, f = decompose(u, 1.0), factorize(u, 1.5, 3.0)
        calls = [
            (decompose, (u, 1.0)),
            (verify_decomposition, (u, 1.0, dec)),
            (weights_hp, (u, 1.0)),
            (weights_tl, (u, 1.5, 3.0)),
            (hp_norm, (u, 1.0)),
            (tl_norm, (u, 1.5, 3.0)),
            (check_multiplier_bound, (u, 1.0, dict(zip(u.support, phis[0].tolist())), m)),
            (check_multiplier_bounds, (u, 1.0, phis, m)),
            (check_multiplier_bounds, (u, 1.5, phis, mt, 3.0)),
            (factorize, (u, 1.5, 3.0)),
            (x0_norm_estimate, (f, u, 4, 0)),
        ]
        # dec and the measures keep their grid, on the leaves or the atoms,
        # and f the measure it was built from
        for fn, args in calls:
            grid_builds.clear()
            fn(*args)
            reads = fn in (
                verify_decomposition, check_multiplier_bound, check_multiplier_bounds,
                x0_norm_estimate,
            )
            assert len(grid_builds) == (0 if reads else 1), fn.__name__
        grid_builds.clear()
        check_multiplier_bound(u, 1.0, dict(zip(u.support, holes.tolist())), m)
        assert len(grid_builds) == 1 and max(Counter(grid_builds).values()) == 1

    def test_no_grid_kept(self, grid_builds):
        u = _sparse(np.random.default_rng(9), 30, 200)
        decompose(u, 1.0)
        assert not [name for name in vars(haar) if isinstance(vars(haar)[name], _Grid)]
        assert not hasattr(u, "__dict__")
        assert len(grid_builds) == 1

    def test_fresh_grids(self, grid_builds):
        # the kept grid serves only u's support at the measure's max level;
        # every other measure and u sums on a grid of its own
        rng = np.random.default_rng(41)
        u = _sparse(rng, 40, 300)
        m = weights_hp(u, 1.0)
        phi = dict(zip(u.support, rng.uniform(-1.0, 1.0, len(u.support)).tolist()))
        deeper = HaarExpansion(41, 1, u.coeffs)
        wider = HaarExpansion(40, 1, {**u.coeffs, DyadicInterval(40, 5): 1.0})
        phi = {**phi, DyadicInterval(40, 5): 0.5}
        cases = [
            (u, PietschMeasure(dict(m.weights), m.normalizer, m.exponent)),
            (u, replace(weights_hp(u, 1.0), normalizer=2.0)),
            (deeper, weights_hp(u, 1.0)),
            (wider, weights_hp(u, 1.0)),
        ]
        for v, measure in cases:
            grid_builds.clear()
            check_multiplier_bound(v, 1.0, phi, measure)
            assert len(grid_builds) == 1
        assert deeper.support == u.support and _support_grid(deeper).lengths is not None

    def test_copies(self, grid_builds):
        # a `copy.copy` shares the measure's grid, and a deep copy or a
        # pickle round trip carries its own, read-only; all check alike
        rng = np.random.default_rng(42)
        u = _sparse(rng, 40, 300)
        phis = rng.uniform(-1.0, 1.0, (3, len(u.support)))
        m = weights_tl(u, 1.5, 3.0)
        want = repr(check_multiplier_bounds(u, 1.5, phis, m, 3.0))
        grid_builds.clear()
        shared = copy.copy(m)
        assert shared._grid_for(u) is m._grid_for(u)
        for twin in (shared, copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert repr(check_multiplier_bounds(u, 1.5, phis, twin, 3.0)) == want
            _assert_read_only(twin._grid_for(u))
        assert not grid_builds

    def test_leaf_grid_results_keep_their_grid(self, grid_builds):
        # a leaf grid is kept as an atom grid is: the checks of a measure
        # and the verification of a decomposition on the leaves build none
        u = _sparse(np.random.default_rng(43), 8, 300)
        m, dec = weights_hp(u, 1.0), decompose(u, 1.0)
        assert vars(m)["_grid"].lengths is None and vars(dec)["_grid"].lengths is None
        grid_builds.clear()
        check_multiplier_bounds(u, 1.0, np.ones((2, len(u.support))), m)
        assert verify_decomposition(u, 1.0, dec).passed
        assert not grid_builds


def _assert_read_only(grid):
    """Every array of the grid, the leaf grid's None lengths left out, is
    read-only."""
    assert isinstance(grid.bounds, tuple)
    assert not hasattr(grid, "edges")
    arrays = (grid.owner, grid.parent, grid.lengths)
    for array in (array for array in arrays if array is not None):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


class TestReadOnly:
    """One grid, on the leaves or the atoms, serves a result, its copies and
    every check, so no caller may write to it: its arrays are read-only and
    its bounds a tuple."""

    @pytest.mark.parametrize("max_level", [8, 40])
    def test_writes_raise_on_both_grids(self, max_level):
        u = _sparse(np.random.default_rng(max_level), max_level, 300)
        grid = _support_grid(u)
        assert (grid.lengths is None) == (max_level == 8)
        for copied in (grid, copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
            _assert_read_only(copied)
            assert copied.bounds == grid.bounds and isinstance(copied.bounds, tuple)
            assert np.array_equal(copied.owner, grid.owner)
