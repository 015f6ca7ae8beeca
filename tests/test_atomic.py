"""Block decomposition guarantees and the appendix constant."""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from haarmult import atomic, dyadic, haar
from haarmult import (
    AtomicDecomposition,
    AtomicPiece,
    DyadicInterval,
    HaarExpansion,
    IntervalFamily,
    ZeroInputError,
    appendix_constant,
    decompose,
    hp_norm,
    is_block,
    verify_decomposition,
    weights_hp,
)

import atomic_oracle
import haar_oracle
import pietsch_oracle
from atomic_oracle import sup_square


def iv(level, pos):
    return DyadicInterval(level, pos)


def scalar(max_level, pairs):
    return HaarExpansion.scalar(
        max_level, {iv(level, pos): value for (level, pos), value in pairs.items()}
    )


def random_scalar(rng, max_level, density=0.6, dimension=1):
    coeffs = {}
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                coeffs[iv(level, pos)] = tuple(
                    float(v) for v in rng.standard_normal(dimension)
                )
    if not coeffs:
        coeffs[iv(0, 0)] = tuple(float(v) for v in rng.standard_normal(dimension))
    return HaarExpansion(max_level, dimension, coeffs)


class TestDecompose:
    def test_single_interval(self):
        dec = decompose(scalar(0, {(0, 0): 1.0}), 1.0)
        assert len(dec.pieces) == 1
        block, top = dec.pieces[0]
        assert top == iv(0, 0)
        assert set(block) == {iv(0, 0)}

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInputError):
            decompose(HaarExpansion.scalar(3, {}), 1.0)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            decompose(scalar(0, {(0, 0): 1.0}), 2.5)

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_squares_out_of_float_range(self, scale):
        u = scalar(1, {(0, 0): scale, (1, 0): 0.5 * scale, (1, 1): -0.25 * scale})
        with pytest.raises(OverflowError, match="float range"):
            decompose(u, 1.0)

    def test_two_interval_example(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        dec = decompose(u, 1.0)
        report = verify_decomposition(u, 1.0, dec)
        assert report.passed
        assert report.tops_carleson <= 4

    def test_pieces_cover_support(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = random_scalar(rng, int(rng.integers(0, 8)))
            dec = decompose(u, 1.0)
            members = [i for block, _ in dec.pieces for i in block]
            assert sorted(members) == list(u.support)

    def test_randomized_verifier_suite(self):
        rng = np.random.default_rng(40)
        worst = Fraction(0)
        for trial in range(150):
            u = random_scalar(
                rng, int(rng.integers(0, 8)), density=float(rng.uniform(0.1, 1.0))
            )
            for p in (0.5, 1.0, 1.5, 2.0):
                report = verify_decomposition(u, p, decompose(u, p))
                assert report.passed, (trial, p, report.as_dict())
                worst = max(worst, report.tops_carleson)
        assert worst <= 4

    def test_vector_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            u = random_scalar(rng, int(rng.integers(0, 7)), dimension=3)
            for p in (0.5, 1.5, 2.0):
                assert verify_decomposition(u, p, decompose(u, p)).passed

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        u = random_scalar(rng, 6)
        assert decompose(u, 1.0) == decompose(u, 1.0)

    def test_deep_instance(self):
        rng = np.random.default_rng(8)
        u = random_scalar(rng, 12, density=0.2)
        report = verify_decomposition(u, 0.5, decompose(u, 0.5))
        assert report.passed
        assert report.tops_carleson <= 4


class TestVerifyDecomposition:
    def test_single_interval_observed_ratio_one(self):
        u = scalar(0, {(0, 0): 2.0})
        report = verify_decomposition(u, 1.0, decompose(u, 1.0))
        assert report.passed
        assert report.observed_ratio == pytest.approx(1.0, rel=1e-14)

    def test_disjoint_supports_give_chain_equality(self):
        u = scalar(2, {(2, 0): 1.5, (2, 2): -0.5, (1, 1): 0.0})
        dec = decompose(u, 0.7)
        report = verify_decomposition(u, 0.7, dec)
        assert report.passed
        assert all(len(block) == 1 for block, _ in dec.pieces)
        assert report.block_norm_sum_p == pytest.approx(
            hp_norm(u, 0.7) ** 0.7, rel=1e-14
        )

    def test_mismatched_dec_rejected(self):
        u = scalar(1, {(0, 0): 1.0})
        dec = decompose(u, 1.0)
        other = scalar(2, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            verify_decomposition(other, 1.0, dec)

    def test_corrupt_partition_detected(self):
        u = scalar(1, {(0, 0): 1.0, (1, 1): 1.0})
        bad = AtomicDecomposition(
            pieces=(AtomicPiece(IntervalFamily([iv(0, 0)], max_level=1), iv(0, 0)),),
            max_level=1,
            dimension=1,
        )
        assert not verify_decomposition(u, 1.0, bad).partition_ok

    def test_corrupt_top_detected(self):
        u = scalar(1, {(1, 0): 1.0, (1, 1): 1.0})
        bad = AtomicDecomposition(
            pieces=(
                AtomicPiece(IntervalFamily([iv(1, 0)], max_level=1), iv(1, 1)),
                AtomicPiece(IntervalFamily([iv(1, 1)], max_level=1), iv(1, 0)),
            ),
            max_level=1,
            dimension=1,
        )
        assert not verify_decomposition(u, 1.0, bad).tops_ok

    def test_member_outside_top_left_out_of_leaf_sum(self):
        # the coarser member 2/0 lies outside the top 1/1; its square must not
        # reach the top's leaves (sup S = 1, not sqrt(10)) and nothing raises
        u = scalar(2, {(1, 1): 1.0, (2, 0): 3.0})
        bad = AtomicDecomposition(
            pieces=(
                AtomicPiece(IntervalFamily([iv(1, 1), iv(2, 0)], max_level=2), iv(1, 1)),
            ),
            max_level=2,
            dimension=1,
        )
        report = verify_decomposition(u, 1.0, bad)
        assert not report.passed
        assert not report.tops_ok
        assert report.top_bound_sum == 0.5

    def test_repeated_nested_top_counted_with_multiplicity(self):
        # tops 0/0, 1/0, 1/0 and 2/0: the multiset packs 2 * 1/2 + 1/4 inside
        # 1/0, so the Carleson constant is (5/4) / (1/2) = 5/2
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.5, (1, 1): -0.5, (2, 0): 0.25})
        pieces = tuple(
            AtomicPiece(IntervalFamily([member], max_level=2), top)
            for member, top in [
                (iv(0, 0), iv(0, 0)),
                (iv(1, 0), iv(1, 0)),
                (iv(1, 1), iv(1, 0)),
                (iv(2, 0), iv(2, 0)),
            ]
        )
        report = verify_decomposition(u, 1.0, AtomicDecomposition(pieces, 2, 1))
        assert report.tops_carleson == Fraction(5, 2)
        assert type(report.tops_carleson) is Fraction
        assert report.partition_ok and not report.tops_ok

    def test_top_above_max_level_rejected(self):
        u = scalar(1, {(0, 0): 1.0})
        bad = AtomicDecomposition(
            pieces=(AtomicPiece(IntervalFamily([iv(0, 0)], max_level=1), iv(2, 1)),),
            max_level=1,
            dimension=1,
        )
        with pytest.raises(ValueError, match="interval 2/1 exceeds declared max level 1"):
            verify_decomposition(u, 1.0, bad)

    def test_blocks_pass_block_predicate(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            u = random_scalar(rng, int(rng.integers(1, 7)))
            dec = decompose(u, 1.0)
            support = IntervalFamily(u.support, u.max_level)
            for block, _ in dec.pieces:
                assert is_block(block, support)

    def test_multiplier_remark_bound(self):
        # with unit-bounded multipliers the blockwise p-sum still dominates
        rng = np.random.default_rng(44)
        for _ in range(100):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            p = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            dec = decompose(u, p)
            phi = {i: float(rng.uniform(-1, 1)) for i in u.support}
            lhs = hp_norm(pietsch_oracle.multiply(phi, u), p) ** p
            rhs = math.fsum(
                hp_norm(pietsch_oracle.multiply(phi, haar_oracle.restrict(u, block)), p) ** p
                for block, _ in dec.pieces
            )
            assert lhs <= rhs * (1 + 1e-12)


class TestDepthLimit:
    """Leaf positions, heap codes and prefix counts are int64, so the deepest
    max level is 61; past it the constructor raises ValueError."""

    PAIRS = {(0, 0): 1.0, (30, 5): -0.5, (61, (1 << 61) - 1): 2.0}

    def test_three_intervals_at_level_61(self):
        u = scalar(61, self.PAIRS)
        dec = decompose(u, 1.0)
        assert verify_decomposition(u, 1.0, dec).passed
        assert sorted(i for block, _ in dec.pieces for i in block) == list(u.support)
        m = weights_hp(u, 1.0)
        assert set(m.weights) == set(u.support)
        assert 0 < m.total() <= 1 + 1e-12
        # S(u)^2 is 1, plus 0.25 on 30/5 and 4 on the last leaf
        small, leaf = 2.0**-30, 2.0**-61
        exact = math.fsum([1 - small - leaf, small * math.sqrt(1.25), leaf * math.sqrt(5)])
        assert hp_norm(u, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_atom_grid_blocks_at_level_61(self):
        # a chain of growing coefficients gives one block per link; the
        # blocks topped at levels 0 to 50 are on the atom grid, and their
        # endpoints reach 2^61
        right = (1 << 61) - 1
        pairs = {(level, right >> (61 - level)): 10.0 ** (level // 5)
                 for level in (0, 10, 30, 50, 61)}
        pairs.update({(20, 3): 7.0, (40, 5): -3.0})
        u = scalar(61, pairs)
        dec = decompose(u, 1.0)
        assert verify_decomposition(u, 1.0, dec).passed
        depths = [61 - top.level for top in dec.tops()]
        assert sum(depth >= 11 for depth in depths) >= 4
        assert atomic_oracle.assert_block_stats(u, dec, 1.0)
        # without its first block dec no longer partitions the support, so
        # the rest take the per-block path, each on its own grid
        rest = AtomicDecomposition(dec.pieces[1:], 61, 1)
        assert not atomic_oracle.assert_block_stats(u, rest, 1.0)
        assert 0 < weights_hp(u, 1.0).total() <= 1 + 1e-12

    def test_level_62_raises(self):
        with pytest.raises(ValueError, match="max_level 62 exceeds 61"):
            scalar(62, self.PAIRS)
        u = scalar(61, self.PAIRS)
        dec = decompose(u, 1.0)
        with pytest.raises(ValueError, match="does not match"):
            verify_decomposition(u, 1.0, AtomicDecomposition(dec.pieces, 62, 1))

    def test_level_64_interval_raises_value_error(self):
        # the limit fires before the int64 support arrays are built
        with pytest.raises(ValueError, match="max_level 64 exceeds 61"):
            scalar(64, {(64, (1 << 64) - 1): 1.0})


class TestSupSquare:
    def test_single_haar(self):
        assert sup_square(scalar(0, {(0, 0): 1.0})) == 1.0

    def test_two_intervals(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert sup_square(u) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_zero_expansion(self):
        assert sup_square(HaarExpansion.scalar(2, {})) == 0.0


class TestAppendixConstant:
    def test_closed_form_p_one(self):
        ratio = 2.0 ** (-2.0 / 17.0)
        assert appendix_constant(1.0, 4) == pytest.approx(
            1.0 + 4.0 * ratio / (1.0 - ratio), rel=1e-15
        )

    def test_series_term_matches(self):
        # the closed form sums the terms 2^(-2*l / (p*(4*K+1)))
        p, carleson = 1.5, 3.0
        direct = 1.0 + 4.0 ** (1.0 / p) * math.fsum(
            2.0 ** (-2.0 * layer / (p * (4.0 * carleson + 1.0)))
            for layer in range(1, 10_000)
        )
        assert appendix_constant(p, carleson) == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_carleson(self):
        for p in (1.0, 1.5, 2.0):
            values = [appendix_constant(p, k) for k in (1, 2, 4, 8, 16)]
            assert values == sorted(values)

    def test_not_monotone_in_p(self):
        # the 4^(1/p) prefactor shrinks faster than the series grows near
        # p = 1, so the constant dips before increasing again
        assert appendix_constant(1.0, 4) > appendix_constant(1.25, 4)
        assert appendix_constant(1.25, 4) < appendix_constant(2.0, 4)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            appendix_constant(0.9, 4)

    def test_carleson_below_one_rejected(self):
        with pytest.raises(ValueError):
            appendix_constant(1.5, 0.5)

    @pytest.mark.parametrize("p, carleson", [(math.nan, 4), (1.5, math.nan), (math.nan, math.nan)])
    def test_nan_rejected(self, p, carleson):
        with pytest.raises(ValueError):
            appendix_constant(p, carleson)

    @pytest.mark.parametrize("p, carleson", [(math.inf, 4), (1.5, math.inf), (math.inf, math.inf)])
    def test_infinity_rejected(self, p, carleson):
        with pytest.raises(ValueError, match="finite"):
            appendix_constant(p, carleson)

    @pytest.mark.parametrize(
        "p, carleson", [(1e16, 4), (1.5, 1e16), (1.0, Fraction(10**17)), (1e300, 1e10)]
    )
    def test_saturated_ratio_gives_inf(self, p, carleson):
        # 2^(-2 / (p (4K + 1))) rounds to 1.0: the series exceeds every float
        assert appendix_constant(p, carleson) == math.inf

    @pytest.mark.parametrize(
        "p, carleson", [(1.5, Fraction(10**400)), (1.5, 10**400), (10**400, 4)]
    )
    def test_past_float_range_gives_inf(self, p, carleson):
        # no float holds the constant, and the ratio would round to 1.0
        assert appendix_constant(p, carleson) == math.inf

    def test_closed_form_below_saturation(self):
        # bit for bit the closed form wherever the ratio stays below 1.0,
        # as at p = 1e15, where it is the float just below 1.0
        pairs = [(1.0, 1e12), (1e3, 1e10), (1e15, 1)] + [
            (p, carleson)
            for p in (1.0, 1.25, 1.5, 2.0, 7.5, 1e3)
            for carleson in (1, Fraction(5, 4), 4, 1e3)
        ]
        for p, carleson in pairs:
            ratio = 2.0 ** (-2.0 / (p * (4.0 * float(carleson) + 1.0)))
            assert ratio < 1.0
            want = 1.0 + 4.0 ** (1.0 / p) * ratio / (1.0 - ratio)
            assert repr(appendix_constant(p, carleson)) == repr(want)


class TestStorage:
    """A decomposition is a frozen dataclass on `haar._KeptRows`: `decompose`
    keeps its row form and its atom grid, copies and pickles keep them, and
    equality, hashing and repr are those of (pieces, max_level, dimension)."""

    def _small(self):
        u = scalar(3, {(0, 0): 1.0, (1, 0): 0.5, (2, 3): -2.0, (3, 1): 0.25})
        return u, decompose(u, 1.5)

    def test_repr_and_hash_pinned(self):
        u, dec = self._small()
        assert repr(dec) == (
            "AtomicDecomposition(pieces=(AtomicPiece(block=IntervalFamily({0/0, 1/0, 3/1}), "
            "top=DyadicInterval(level=0, position=0)), "
            "AtomicPiece(block=IntervalFamily({2/3}), top=DyadicInterval(level=2, position=3))), "
            "max_level=3, dimension=1)"
        )
        assert hash(dec) == hash((dec.pieces, dec.max_level, dec.dimension))
        rebuilt = AtomicDecomposition(list(dec.pieces), 3, 1)
        assert rebuilt == dec and hash(rebuilt) == hash(dec) and repr(rebuilt) == repr(dec)
        assert isinstance(rebuilt.pieces, tuple)

    @pytest.mark.parametrize("max_level", [10, 22])
    def test_pickle_and_deep_copy_keep_the_row_form(self, max_level):
        leaf = random_scalar(np.random.default_rng(46), 10, density=0.5)
        u = HaarExpansion(max_level, 1, leaf.coeffs)
        dec = decompose(u, 1.5)
        on_atoms = haar._support_grid(u).lengths is not None
        assert (vars(dec)["_grid"] is not None) == on_atoms == (max_level == 22)
        report = repr(verify_decomposition(u, 1.5, dec))
        assert len(haar_oracle.assert_read_only(dec)) == 2  # `_block` and `_top_rows`
        for kept in (pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)):
            assert len(haar_oracle.assert_read_only(kept)) == 2
            assert kept._of_support(u) and "pieces" not in vars(kept)
            assert np.array_equal(kept._block, dec._block)
            assert np.array_equal(kept._top_rows, dec._top_rows)
            assert (vars(kept)["_grid"] is not None) == on_atoms
            assert repr(verify_decomposition(u, 1.5, kept)) == report
            assert kept == dec and kept.tops() == dec.tops()
        shared = copy.copy(dec)
        assert shared._block is dec._block and shared._grid is dec._grid
        assert shared._top_rows is dec._top_rows

    def test_assignment_and_deletion_refused(self):
        _, dec = self._small()
        for obj in (dec, AtomicDecomposition(dec.pieces, 3, 1)):
            for name in ("pieces", "max_level", "dimension", "_block"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
            assert obj == dec and obj.max_level == 3 and obj.dimension == 1

    def test_block_rows_refuse_writes(self):
        # a written block id would change what the verifier and the weights
        # read, while already built `pieces` would still show the clean blocks
        u, dec = self._small()
        for kept in (dec, pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)):
            with pytest.raises(ValueError, match="read-only"):
                kept._block[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                kept._top_rows[0] = 1
            assert verify_decomposition(u, 1.5, kept).passed

    def test_deep_copy_of_pieces_verifies_alike(self):
        # the pieces' families copy through their constructor
        u, dec = self._small()
        built = AtomicDecomposition(dec.pieces, 3, 1)
        twin = copy.deepcopy(built)
        assert twin == built and twin.pieces[0].block is not built.pieces[0].block
        assert repr(verify_decomposition(u, 1.5, twin)) == repr(verify_decomposition(u, 1.5, dec))

    def test_replace_builds_from_pieces(self):
        u, dec = self._small()
        again = dataclasses.replace(dec, max_level=dec.max_level)
        assert again == dec and hash(again) == hash(dec)
        assert not again._of_support(u) and again.tops() == dec.tops()
        assert repr(verify_decomposition(u, 1.5, again)) == repr(verify_decomposition(u, 1.5, dec))


class TestCallCounts:
    def _counts(self, monkeypatch, u):
        """(ancestor searches on u's support arrays, `_cells` calls) of the
        sequence of a bench op: decompose, verify and weights."""
        ancestors, cells = [], []
        for module in (haar, dyadic):
            search = module._nearest_ancestors
            monkeypatch.setattr(
                module, "_nearest_ancestors",
                lambda levels, positions, search=search: (
                    ancestors.append(levels is u.levels) or search(levels, positions)
                ),
            )
        for module in (atomic, haar):
            grid = module._cells
            monkeypatch.setattr(
                module, "_cells",
                lambda *args, grid=grid: cells.append(args) or grid(*args),
            )
        dec = decompose(u, 1.0)
        assert verify_decomposition(u, 1.0, dec).passed
        weights_hp(u, 1.0)
        assert len(dec.pieces) > 30
        assert not hasattr(atomic, "_block_rows")
        assert not hasattr(atomic, "_nearest_ancestors")
        return ancestors.count(True), len(cells)

    def test_decompose_verify_and_weights(self, monkeypatch):
        # each public call builds one grid of u's support, whose parent
        # table its stopping time and verification share, and the block
        # statistics are one pass, so neither count grows with the blocks;
        # the leaf grid paints its parents with no ancestor search
        u = random_scalar(np.random.default_rng(46), 10, density=0.5)
        assert haar._support_grid(u).lengths is None
        # a stopping time per decomposition, hp_norm per verification
        assert self._counts(monkeypatch, u) == (0, 5)

    @pytest.mark.parametrize("max_level", [10, 22])
    def test_one_grid_per_verification(self, monkeypatch, max_level):
        # a clean decomposition, in row form or as pieces, sums its blocks
        # on the one grid of u's support: no grid and no `_cells` call per
        # block, and the row form builds none on the atoms, where it keeps
        # its grid; a corrupt one sums each block on its own grid
        leaf = random_scalar(np.random.default_rng(46), 10, density=0.5)
        u = HaarExpansion(max_level, 1, leaf.coeffs)
        on_atoms = haar._support_grid(u).lengths is not None
        assert on_atoms == (max_level == 22)
        dec = decompose(u, 1.0)
        copy = AtomicDecomposition(dec.pieces, max_level, 1)
        corrupt = AtomicDecomposition(dec.pieces[1:], max_level, 1)
        grids, own = [], []
        init = haar._Grid.__init__
        monkeypatch.setattr(
            haar._Grid, "__init__", lambda grid, *args: grids.append(args) or init(grid, *args)
        )
        own_cells = atomic._own_cells
        monkeypatch.setattr(
            atomic, "_own_cells", lambda *args: own.append(args) or own_cells(*args)
        )
        for clean in (dec, copy):
            grids.clear()
            assert verify_decomposition(u, 1.0, clean).passed
            assert (len(grids), own) == (0 if clean is dec and on_atoms else 1, [])
        grids.clear()
        assert not verify_decomposition(u, 1.0, corrupt).passed
        assert len(own) == 1 and len(grids) == 1 + len(corrupt.pieces)

    def test_decompose_verify_and_weights_on_atoms(self, monkeypatch):
        # the same u 12 levels deeper, on the atoms: one ancestor search per
        # grid of u's support, 2 in all, as the verification sums on the
        # atom grid the decomposition keeps
        leaf = random_scalar(np.random.default_rng(46), 10, density=0.5)
        u = HaarExpansion(22, 1, leaf.coeffs)
        assert haar._support_grid(u).lengths is not None
        assert self._counts(monkeypatch, u) == (2, 5)


class TestBlockOrder:
    """`_block_order` is a stable sort of the block ids and the ends of the
    blocks' runs in it, empty blocks included."""

    @pytest.mark.parametrize(
        "block, n_blocks",
        [
            ([], 0),
            ([], 3),
            ([0], 1),
            ([2, 0, 2, 2, 0, 4], 6),  # blocks 1, 3 and 5 empty
            ([1, 1, 1], 2),
        ],
    )
    def test_small_cases(self, block, n_blocks):
        block = np.array(block, dtype=np.int64)
        order, ends = atomic._block_order(block, n_blocks)
        assert order.tolist() == np.argsort(block, kind="stable").tolist()
        assert ends == np.cumsum(np.bincount(block, minlength=n_blocks)).tolist()
        assert len(ends) == n_blocks

    def test_random_blocks(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 17, 500):
            n_blocks = int(rng.integers(1, n + 4))
            block = rng.integers(0, n_blocks, n)
            order, ends = atomic._block_order(block, n_blocks)
            assert order.tolist() == np.argsort(block, kind="stable").tolist()
            for b, (lo, hi) in enumerate(zip([0] + ends, ends)):
                assert order[lo:hi].tolist() == np.flatnonzero(block == b).tolist()
