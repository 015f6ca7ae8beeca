"""The majority cover of the stopping time on the atoms: the support's
preorder trie against a set of ancestors, the cover against the per-level
cover it replaced (`atomic_oracle.majority_cover`) at every threshold the
stopping time visits and at random masks, and the stopping time of one
support on the leaves against the same support on the atoms."""

import bisect
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import haarmult
from haarmult import DyadicInterval, HaarExpansion, atomic
from haarmult.atomic import _majority_cover, _stopping_time, _support_trie
from haarmult.haar import _support_grid

import atomic_oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sparse_deep(seed):
    """Input `seed` of the sparse-deep bench workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS["sparse-deep"](haarmult).expansion(seed)


def _clustered():
    """The root and 4,096 adjacent level-40 rows."""
    values = np.random.default_rng(40).standard_normal(4096).tolist()
    coeffs = {DyadicInterval(40, j): value for j, value in enumerate(values)}
    return HaarExpansion(40, 1, {DyadicInterval(0, 0): 1.0, **coeffs})


def _chain():
    """[0, 2^-l) with value 2^(l/4) for l = 0 .. 61."""
    return HaarExpansion(61, 1, {DyadicInterval(l, 0): 2.0 ** (l / 4) for l in range(62)})


@st.composite
def sparse_expansions(draw):
    """Scalar expansions at max levels 8-61 with 1-60 distinct rows, most of
    them ancestors of a few anchor leaves, so they nest deeply and share
    left ends; the rest lie anywhere."""
    top = draw(st.integers(8, 61))
    anchors = draw(st.lists(st.integers(0, (1 << top) - 1), min_size=1, max_size=3))
    coeffs = {}
    for _ in range(draw(st.integers(1, 60))):
        level = draw(st.integers(0, top))
        if draw(st.booleans()):
            position = draw(st.sampled_from(anchors)) >> (top - level)
        else:
            position = draw(st.integers(0, (1 << level) - 1))
        coeffs[DyadicInterval(level, position)] = draw(st.floats(0.1, 10.0))
    return HaarExpansion(top, 1, coeffs)


def _ancestors(u):
    """Every ancestor-or-self of u's support, as (left end, level, position)
    sorted: in preorder."""
    nodes = set()
    for interval in u.support:
        for level in range(interval.level + 1):
            position = interval.position >> (interval.level - level)
            nodes.add((position << (u.max_level - level), level, position))
    return sorted(nodes)


def _assert_layout(u):
    """The trie's rows are sorted by (left end, level) and its nodes are the
    ancestors-or-self in preorder, each added by the first row of that
    order inside it; at most n (N + 1) of them. Returns the node count."""
    order, starts, added_by, node_level = _support_trie(u.max_level, u.levels, u.positions)
    keys = list(zip(starts.tolist(), u.levels[order].tolist()))
    assert keys == sorted(keys)
    shift = u.max_level - node_level
    nodes = list(zip((starts[added_by] >> shift << shift).tolist(), node_level.tolist()))
    want = [(start, level) for start, level, _ in _ancestors(u)]
    assert nodes == want
    assert added_by.tolist() == [bisect.bisect_left(keys, node) for node in want]
    assert len(nodes) <= len(u.support) * (u.max_level + 1)
    return len(nodes)


def _assert_cover_matches(u, seed=0, masks=20):
    """The cover equals the oracle at every threshold the stopping time
    visits and at random masks constant on each row's own cells and false
    where no row lies; returns the number of thresholds visited."""
    grid = _support_grid(u)
    assert grid.lengths is not None
    oracle = atomic_oracle.majority_cover(u, grid)
    visited = []

    def checked(u, grid):
        cover = _majority_cover(u, grid)

        def both(omega):
            got = cover(omega)
            assert np.array_equal(got, oracle(omega))
            visited.append(omega)
            return got

        return both

    with mock.patch.object(atomic, "_majority_cover", checked):
        _stopping_time(u, grid)
    assert visited
    cover, rng = _majority_cover(u, grid), np.random.default_rng(seed)
    for _ in range(masks):
        per_row = rng.random(len(u.support)) < rng.random()
        omega = np.where(grid.owner >= 0, per_row[grid.owner], False)
        assert np.array_equal(cover(omega), oracle(omega))
    return len(visited)


class TestLayout:
    def test_clustered_support(self):
        # levels 0-27 one node each, then 2^(l - 28) nodes at level l = 28 .. 40
        assert _assert_layout(_clustered()) == 8219

    def test_chain(self):
        assert _assert_layout(_chain()) == 62

    def test_sparse_deep(self):
        _assert_layout(_sparse_deep(0))

    def test_left_ends_differing_in_many_bits(self):
        # left ends whose XOR is 2^k - 1 with k > 53 round up to 2^k as
        # floats; the deepest common ancestor is at level 61 - k
        for k in (54, 55, 60, 61):
            half = 1 << (k - 1)
            coeffs = {DyadicInterval(61, half - 1): 1.0, DyadicInterval(61, half): 2.0}
            u = HaarExpansion(61, 1, coeffs)
            assert _assert_layout(u) == (61 - k + 1) + 2 * k
            _assert_cover_matches(u)

    @settings(max_examples=150, deadline=None)
    @given(sparse_expansions())
    def test_random_supports(self, u):
        _assert_layout(u)


class TestCoverAgainstOracle:
    def test_sparse_deep_inputs(self):
        for seed in range(4):
            assert _assert_cover_matches(_sparse_deep(seed), seed) > 1

    def test_clustered_support(self):
        _assert_cover_matches(_clustered())

    def test_chain(self):
        # every other level's square sum crosses a new power of 4
        assert _assert_cover_matches(_chain()) > 10

    @settings(max_examples=150, deadline=None)
    @given(sparse_expansions(), st.integers(0, 2**32 - 1))
    def test_random_supports(self, u, seed):
        if _support_grid(u).lengths is not None:  # a few at max levels 8-10 lie on the leaves
            _assert_cover_matches(u, seed, masks=5)


class TestAcrossGrids:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
    def test_leaves_and_atoms_agree(self, max_level, density, seed):
        # the same intervals 12 levels deeper lie on the atoms; majority and
        # the cell sums do not see the depth
        rng = np.random.default_rng(seed)
        coeffs = {
            DyadicInterval(level, pos): float(rng.standard_normal())
            for level in range(max_level + 1)
            for pos in range(1 << level)
            if rng.random() < density
        }
        coeffs = coeffs or {DyadicInterval(0, 0): 1.0}
        u, deep = HaarExpansion(max_level, 1, coeffs), HaarExpansion(max_level + 12, 1, coeffs)
        leaves, atoms = _support_grid(u), _support_grid(deep)
        assert leaves.lengths is None and atoms.lengths is not None
        block, top_rows = _stopping_time(u, leaves)
        deep_block, deep_top_rows = _stopping_time(deep, atoms)
        assert np.array_equal(block, deep_block)
        assert np.array_equal(top_rows, deep_top_rows)
