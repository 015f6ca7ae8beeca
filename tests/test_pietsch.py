"""Summing weights: normalization, the multiplier bound, and exactness of the
level-2 block measures."""

import copy
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from haarmult import (
    DyadicInterval,
    HaarExpansion,
    PietschMeasure,
    VerificationError,
    ZeroInputError,
    check_multiplier_bound,
    check_multiplier_bounds,
    decompose,
    hp_norm,
    l2_norm,
    validate_measure,
    verify_decomposition,
    weights_hp,
    weights_tl,
    weights_vector,
)

from haarmult import atomic, dyadic, haar, pietsch
from haarmult.cli import gen_random
from haarmult.haar import _FSUM_MIN_ROW, _on_atoms

import haar_oracle
import pietsch_oracle


def iv(level, pos):
    return DyadicInterval(level, pos)


def scalar(max_level, pairs):
    return HaarExpansion.scalar(
        max_level, {iv(level, pos): value for (level, pos), value in pairs.items()}
    )


def random_expansion(rng, max_level, density=0.6, dimension=1):
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


class TestWeightsHp:
    def test_single_haar_weight_one(self):
        m = weights_hp(scalar(0, {(0, 0): 1.0}), 1.0)
        assert m.weights == {iv(0, 0): 1.0}
        assert m.normalizer == 1.0
        assert m.exponent == 2.0

    def test_p_two_collapses_block_factor(self):
        rng = np.random.default_rng(1)
        u = random_expansion(rng, 4)
        m = weights_hp(u, 2.0)
        norm_sq = hp_norm(u, 2.0) ** 2
        for interval, weight in m.weights.items():
            expected = (
                haar_oracle.coefficient_square(u, interval)
                * 2.0 ** (-interval.level)
                / (m.normalizer * norm_sq)
            )
            assert weight == pytest.approx(expected, rel=1e-12)
        assert m.total() == pytest.approx(1.0 / m.normalizer, rel=1e-12)

    def test_sum_at_most_one(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            u = random_expansion(rng, int(rng.integers(0, 8)))
            for p in (0.5, 1.0, 1.5, 2.0):
                m = weights_hp(u, p)
                assert m.total() <= 1.0 + 1e-12, (trial, p)
                assert validate_measure(m, u)

    def test_zero_input(self):
        with pytest.raises(ZeroInputError):
            weights_hp(HaarExpansion.scalar(1, {}), 1.0)

    def test_vector_input_rejected(self):
        u = HaarExpansion(0, 2, {iv(0, 0): (1.0, 0.0)})
        with pytest.raises(ValueError):
            weights_hp(u, 1.0)


class TestWeightsTl:
    def test_p_equals_q(self):
        rng = np.random.default_rng(3)
        u = random_expansion(rng, 4)
        q = 3.0
        m = weights_tl(u, q, q)
        norm_q = math.fsum(
            abs(v[0]) ** q * 2.0 ** (-i.level) for i, v in u.coeffs.items()
        )
        for interval, weight in m.weights.items():
            expected = (
                abs(u.coeffs[interval][0]) ** q
                * 2.0 ** (-interval.level)
                / (m.normalizer * norm_q)
            )
            assert weight == pytest.approx(expected, rel=1e-12)
        assert m.total() == pytest.approx(1.0 / m.normalizer, rel=1e-12)

    def test_q_two_matches_hardy_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = random_expansion(rng, int(rng.integers(0, 7)))
            p = float(rng.uniform(0.3, 2.0))
            mh = weights_hp(u, p)
            mt = weights_tl(u, p, 2.0)
            assert mt.normalizer == mh.normalizer
            assert mt.weights == mh.weights
            assert mt.exponent == 2.0

    def test_q_two_checked_as_hardy(self):
        # a measure with s = 2, the TL measure at q = 2 included, is checked
        # on the square function: the same reports as the Hardy measure's,
        # on the leaf grid and on the atom grid
        rng = np.random.default_rng(41)
        for u in (random_expansion(rng, 6), _sparse_expansion(rng, 20, 60)):
            assert _on_atoms(len(u.support), u.max_level) == (u.max_level == 20)
            phis = rng.uniform(-1.0, 1.0, (8, len(u.support)))
            for p in (0.5, 1.0, 1.5, 2.0):
                mh, mt = weights_hp(u, p), weights_tl(u, p, 2.0)
                assert mt._built_from(u) is None
                want = check_multiplier_bounds(u, p, phis, mh)
                assert check_multiplier_bounds(u, p, phis, mt, q=2.0) == want

    def test_q_two_keeps_no_source(self):
        # a TL measure is built on |u|^(q/2), a fresh expansion no caller
        # holds, so at q = 2 too it keeps no source a check could read
        rng = np.random.default_rng(43)
        u = random_expansion(rng, 6)
        for p in (0.5, 1.0, 2.0):
            mt = weights_tl(u, p, 2.0)
            assert mt._built_from(u) is None
            assert vars(mt)["_source"] is None
            assert weights_hp(u, p)._built_from(u) is not None

    def test_sum_at_most_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = random_expansion(rng, int(rng.integers(0, 7)))
            for p, q in ((1.5, 2.0), (1.0, 3.0), (2.0, 4.0)):
                assert weights_tl(u, p, q).total() <= 1.0 + 1e-12

    def test_p_above_q_rejected(self):
        u = scalar(0, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            weights_tl(u, 3.0, 2.0)

    def test_underflowing_convexification_fails_closed(self):
        # |1e-3|^150 underflows; the weights must not leave the row 1/0 out
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1e-3})
        with pytest.raises(OverflowError, match="float range"):
            weights_tl(u, 1.5, 300.0)


class TestWeightsVector:
    def test_axis_vector_single_interval(self):
        u = HaarExpansion(0, 2, {iv(0, 0): (1.0, 0.0)})
        m = weights_vector(u, 1.0)
        assert m.weights == {iv(0, 0): 1.0}
        assert m.normalizer == 1.0

    def test_block_measures_are_probabilities(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = random_expansion(rng, int(rng.integers(0, 7)), dimension=2)
            dec = decompose(u, 1.0)
            for block, _ in dec.pieces:
                mu = pietsch_oracle.h2_weights(haar_oracle.restrict(u, block))
                assert math.fsum(mu.values()) == pytest.approx(1.0, rel=1e-12)

    def test_sum_at_most_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            u = random_expansion(rng, int(rng.integers(0, 7)), dimension=d)
            for p in (0.5, 1.0, 1.5, 2.0):
                assert weights_vector(u, p).total() <= 1.0 + 1e-12


class TestH2Measure:
    def test_equality_identity(self):
        # the level-2 multiplier bound is an identity, not an inequality
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            u = random_expansion(rng, int(rng.integers(0, 7)), dimension=d)
            mu = pietsch_oracle.h2_weights(u)
            phi = {i: float(rng.uniform(-2, 2)) for i in u.support}
            lhs = hp_norm(pietsch_oracle.multiply(phi, u), 2.0) ** 2
            rhs = l2_norm(u) ** 2 * math.fsum(
                phi[i] ** 2 * mu[i] for i in mu
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_rejected(self):
        # the level-2 weights of the library need a nonzero expansion
        for weights in (weights_hp, weights_vector):
            with pytest.raises(ZeroInputError):
                weights(HaarExpansion.scalar(0, {}), 2.0)


class TestMultiplierBound:
    def test_identity_multiplier(self):
        rng = np.random.default_rng(9)
        u = random_expansion(rng, 5)
        for p in (0.5, 1.0, 2.0):
            m = weights_hp(u, p)
            phi = {i: 1.0 for i in u.support}
            report = check_multiplier_bound(u, p, phi, m)
            assert report.ok
            assert report.lhs == pytest.approx(hp_norm(u, p), rel=1e-14)

    def test_report_as_dict(self):
        u = random_expansion(np.random.default_rng(9), 3)
        phi = {i: 0.5 for i in u.support}
        report = check_multiplier_bound(u, 1.0, phi, weights_hp(u, 1.0))
        assert report.as_dict() == {
            "lhs": report.lhs,
            "rhs": report.rhs,
            "constant": report.constant,
            "weighted_sum": report.weighted_sum,
            "ok": report.ok,
        }
        assert list(report.as_dict()) == ["lhs", "rhs", "constant", "weighted_sum", "ok"]

    def test_p_two_is_equality(self):
        rng = np.random.default_rng(10)
        u = random_expansion(rng, 5)
        m = weights_hp(u, 2.0)
        phi = {i: float(rng.uniform(-1, 1)) for i in u.support}
        report = check_multiplier_bound(u, 2.0, phi, m)
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_scalar_bound_random_suite(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            u = random_expansion(rng, int(rng.integers(0, 7)))
            p = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            m = weights_hp(u, p)
            for _ in range(10):
                phi = {i: float(rng.uniform(-1, 1)) for i in u.support}
                assert check_multiplier_bound(u, p, phi, m).ok, (trial, p)

    def test_tl_bound_random_suite(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            u = random_expansion(rng, int(rng.integers(0, 6)))
            p, q = (1.5, 3.0) if trial % 2 else (1.0, 2.0)
            m = weights_tl(u, p, q)
            for _ in range(10):
                phi = {i: float(rng.uniform(-1, 1)) for i in u.support}
                assert check_multiplier_bound(u, p, phi, m, q=q).ok, (trial, p, q)

    def test_vector_bound_random_suite(self):
        rng = np.random.default_rng(13)
        for trial in range(60):
            u = random_expansion(rng, int(rng.integers(0, 6)), dimension=2)
            p = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            m = weights_vector(u, p)
            for _ in range(10):
                phi = {i: float(rng.uniform(-1, 1)) for i in u.support}
                assert check_multiplier_bound(u, p, phi, m).ok, (trial, p)

    def test_mismatched_measure_rejected(self):
        u = scalar(1, {(0, 0): 1.0})
        other = scalar(1, {(1, 1): 1.0})
        m = weights_hp(other, 1.0)
        with pytest.raises(ValueError):
            check_multiplier_bound(u, 1.0, {}, m)

    def test_exponent_q_mismatch_rejected(self):
        u = scalar(0, {(0, 0): 1.0})
        m = weights_tl(u, 1.0, 3.0)
        with pytest.raises(ValueError):
            check_multiplier_bound(u, 1.0, {}, m, q=4.0)


class TestValidateMeasure:
    def test_doubled_weights_caught(self):
        rng = np.random.default_rng(14)
        u = random_expansion(rng, 4)
        m = weights_hp(u, 1.0)
        doubled = PietschMeasure(
            weights={k: 2.0 * w for k, w in m.weights.items()},
            normalizer=m.normalizer,
            exponent=m.exponent,
        )
        assert validate_measure(m, u)
        assert not validate_measure(doubled, u)

    def test_negative_weight_caught(self):
        u = scalar(0, {(0, 0): 1.0})
        bad = PietschMeasure(weights={iv(0, 0): -0.1}, normalizer=1.0, exponent=2.0)
        assert not validate_measure(bad, u)

    def test_nan_weight_caught(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 0.5})
        bad = PietschMeasure(
            weights={iv(0, 0): math.nan, iv(1, 0): 0.1}, normalizer=1.0, exponent=2.0
        )
        assert not validate_measure(bad, u)

    def test_foreign_support_caught(self):
        u = scalar(1, {(0, 0): 1.0})
        bad = PietschMeasure(weights={iv(1, 1): 0.5}, normalizer=1.0, exponent=2.0)
        assert not validate_measure(bad, u)


class TestMeasureParameters:
    """A measure's normalizer must lie in [1, inf) and its exponent in
    (0, inf): otherwise `validate_measure` is False and the multiplier
    checks raise ValueError after the key check, before any work."""

    U = scalar(1, {(0, 0): 1.0, (1, 0): 0.5})

    def _refused(self, monkeypatch, m, message):
        assert not validate_measure(m, self.U)
        grids = []
        monkeypatch.setattr(pietsch, "_support_grid", lambda u: grids.append(u))
        phi = dict(zip(self.U.support, [0.5, -1.0]))
        with pytest.raises(ValueError, match=message):
            check_multiplier_bound(self.U, 1.5, phi, m)
        with pytest.raises(ValueError, match=message):
            check_multiplier_bounds(self.U, 1.5, np.ones((3, 2)), m)
        assert grids == []

    @pytest.mark.parametrize("normalizer", [-1.0, 0.0, 0.5, math.inf, math.nan])
    def test_normalizer(self, monkeypatch, normalizer):
        m = replace(weights_hp(self.U, 1.5), normalizer=normalizer)
        self._refused(monkeypatch, m, r"normalizer must lie in \[1, inf\)")

    @pytest.mark.parametrize(
        "exponent, message",
        [(0.0, "positive"), (-2.0, "positive"), (math.nan, "positive"), (math.inf, "finite")],
    )
    def test_exponent(self, monkeypatch, exponent, message):
        m = replace(weights_hp(self.U, 1.5), exponent=exponent)
        self._refused(monkeypatch, m, f"q must be {message}")

    def test_key_check_comes_first(self):
        m = replace(weights_hp(self.U, 1.5), normalizer=-1.0)
        foreign = replace(m, weights={**m.weights, iv(1, 1): 0.0})
        with pytest.raises(ValueError, match="does not match the expansion"):
            check_multiplier_bounds(self.U, 1.5, np.ones((1, 2)), foreign)

    def test_range_ends(self):
        m = weights_hp(self.U, 1.5)
        for normalizer, exponent in [(1.0, 2.0), (1e300, 2.0), (1.0, 1e-300), (1.0, 1e300)]:
            assert validate_measure(replace(m, normalizer=normalizer, exponent=exponent), self.U)


class TestExtremeScale:
    def test_tiny_scale_weights_fail_closed(self):
        # at 1e-160 the squared norms underflow and the assembled weights
        # total inf; the constructor must refuse to return them
        u = scalar(1, {(0, 0): 1e-160, (1, 0): 0.5e-160, (1, 1): -0.25e-160})
        with pytest.raises(VerificationError):
            weights_hp(u, 1.0)

    def test_refused_measure_is_the_report(self):
        # ||u||_2^2 = 1e-320 is subnormal, so the normalizer is inf and every
        # weight 0.0: the total passes, the normalizer does not, and the
        # constructor raises with the measure `validate_measure` refused
        u = scalar(3, {(0, 0): 1.0, (1, 0): 0.5, (2, 3): -2.0, (3, 1): 0.25})
        dec, _ = atomic._decompose(u, 2.0, haar._support_grid(u))
        with pytest.raises(VerificationError, match="normalizer inf") as caught:
            pietsch._assemble(u, 2.0, dec, 1e-160)
        m = caught.value.report
        assert isinstance(m, PietschMeasure) and not validate_measure(m, u)
        assert m.normalizer == math.inf and m.total() == 0.0


class _CountingDict(dict):
    """A phi that counts its `get` calls."""

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class TestSupportRowPaths:
    """The verifier and the multiplier check read support rows: no block
    predicate per call, and one phi lookup per row."""

    def test_no_family_and_one_lookup_per_row(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-interval path called")

        rng = np.random.default_rng(61)
        u = random_expansion(rng, 7)
        v = random_expansion(rng, 5, dimension=2)
        monkeypatch.setattr(dyadic, "is_block", refuse)
        monkeypatch.setattr(atomic, "is_block", refuse, raising=False)
        for w, p in ((u, 1.0), (u, 0.5), (v, 1.5)):
            assert verify_decomposition(w, p, decompose(w, p)).passed
        routes = [
            (u, 1.0, weights_hp(u, 1.0), None),
            (u, 1.5, weights_tl(u, 1.5, 3.0), 3.0),
            (v, 1.5, weights_vector(v, 1.5), None),
        ]
        for w, p, m, q in routes:
            phi = _CountingDict(zip(w.support, rng.uniform(-1, 1, len(w.support)).tolist()))
            phi.gets = 0
            report = check_multiplier_bound(w, p, phi, m, q=q)
            assert 0 < phi.gets <= len(w.support)
            assert report == pietsch_oracle.check_multiplier_bound(w, p, dict(phi), m, q=q)


def _outcome(fn, *args, **kwargs):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _rows(phis, u):
    """The (K, n) batch of the multipliers phis on u's support rows."""
    return np.array([[phi.get(i, 0.0) for i in u.support] for phi in phis]).reshape(
        len(phis), len(u.support)
    )


def _sparse_expansion(rng, max_level, draws, dimension=1):
    """Random intervals at every level up to max_level, few enough for the
    atom grid when max_level is large."""
    levels = rng.integers(0, max_level + 1, draws)
    positions = rng.integers(0, np.left_shift(1, levels))
    coeffs = {
        iv(level, pos): tuple(rng.standard_normal(dimension).tolist())
        for level, pos in zip(levels.tolist(), positions.tolist())
    }
    return HaarExpansion(max_level, dimension, coeffs)


class TestBatchedMultiplierChecks:
    """`check_multiplier_bounds` row by row against the single check and its
    oracle: identical reports, the same exceptions, and bounded memory."""

    def _routes(self):
        rng = np.random.default_rng(8181)
        u = random_expansion(rng, 6)
        deep = _sparse_expansion(rng, 14, 40)  # the atom grid
        v = random_expansion(rng, 5, dimension=2)
        w = random_expansion(rng, 4, dimension=3)
        return [
            (u, 1.0, weights_hp(u, 1.0), None),
            (u, 1.5, weights_tl(u, 1.5, 3.0), 3.0),
            (deep, 0.5, weights_hp(deep, 0.5), None),
            (deep, 1.0, weights_tl(deep, 1.0, 4.0), 4.0),
            (v, 1.5, weights_vector(v, 1.5), None),
            (w, 0.5, weights_vector(w, 0.5), None),
        ]

    def _phis(self, u, rng):
        """Uniform draws, exact zeros, subnormal factors, all-zero rows."""
        phis = rng.uniform(-1.0, 1.0, (12, len(u.support)))
        phis[1, ::3] = 0.0
        phis[2, 1::2] = 5e-324
        phis[3] = 0.0
        phis[4, : len(u.support) // 2] = -3.1e-310
        return phis

    def test_rows_match_single_and_oracle(self):
        rng = np.random.default_rng(8282)
        for u, p, m, q in self._routes():
            phis = self._phis(u, rng)
            reports = check_multiplier_bounds(u, p, phis, m, q=q)
            for row, report in zip(phis, reports):
                phi = dict(zip(u.support, row.tolist()))
                assert report == check_multiplier_bound(u, p, phi, m, q=q)
                assert report == pietsch_oracle.check_multiplier_bound(u, p, phi, m, q=q)
            assert len(reports) == len(phis)
            assert reports[3].lhs == 0.0 and reports[3].weighted_sum == 0.0

    def test_empty_batch(self):
        u = scalar(2, {(0, 0): 1.0, (2, 1): -0.5})
        m = weights_hp(u, 1.0)
        assert check_multiplier_bounds(u, 1.0, np.empty((0, 2)), m) == []
        other = weights_hp(scalar(2, {(1, 1): 1.0}), 1.0)
        with pytest.raises(ValueError, match="does not match the expansion"):
            check_multiplier_bounds(u, 1.0, np.empty((0, 2)), other)
        with pytest.raises(ValueError, match="expected"):
            check_multiplier_bounds(u, 1.0, np.zeros((1, 3)), m)

    def test_exceptions_match_single(self):
        ones = scalar(2, {(0, 0): 1.0, (2, 1): 1.0})
        m = weights_hp(ones, 1.0)
        huge = scalar(2, {(0, 0): 1e200, (2, 1): 1.0})
        tl_u = scalar(1, {(0, 0): 1e100, (1, 0): 1.0})
        fine = {iv(0, 0): 0.5, iv(2, 1): -0.5}
        pow_overflow = {iv(0, 0): 1e200}  # |phi|^2 past the float range
        cases = [
            # a non-finite product
            (huge, m, None, [{iv(0, 0): 1e150}, fine], ValueError),
            # a nonzero product whose norm is below the float range
            (ones, m, None, [fine, {iv(2, 1): 1e-170}, fine], OverflowError),
            (ones, m, None, [fine, pow_overflow, fine], OverflowError),
            (ones, weights_hp(scalar(2, {(1, 1): 1.0}), 1.0), None, [fine], ValueError),
            (ones, m, 3.0, [fine], ValueError),
            # |phi_I x_I|^q past the float range on the Triebel-Lizorkin route
            (tl_u, weights_tl(tl_u, 1.0, 3.0), 3.0, [fine, {iv(0, 0): 1e10}], OverflowError),
            # two failing rows: the first one's exception
            (ones, m, None, [fine, pow_overflow, {iv(2, 1): 1e-170}], OverflowError),
        ]
        for w, measure, q, phis, kind in cases:
            want = None
            for phi in phis:  # the first exception of one check per row
                single = _outcome(check_multiplier_bound, w, 1.0, phi, measure, q=q)
                oracle = _outcome(pietsch_oracle.check_multiplier_bound, w, 1.0, phi, measure, q=q)
                assert single == oracle
                if isinstance(single, tuple):
                    want = single
                    break
            assert want is not None and want[0] is kind
            rows = _rows(phis, w)
            assert _outcome(check_multiplier_bounds, w, 1.0, rows, measure, q=q) == want

    def test_all_zero_product_has_norm_zero(self):
        u = scalar(3, {(0, 0): 1.0, (3, 5): 2.0})
        for m, q in ((weights_hp(u, 1.0), None), (weights_tl(u, 1.0, 3.0), 3.0)):
            (report,) = check_multiplier_bounds(u, 1.0, np.zeros((1, 2)), m, q=q)
            assert report.lhs == 0.0 and report.ok
            assert report == pietsch_oracle.check_multiplier_bound(u, 1.0, {}, m, q=q)

    def test_chunking_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(8383)
        for u, p, m, q in self._routes():
            phis = self._phis(u, rng)
            whole = check_multiplier_bounds(u, p, phis, m, q=q)
            monkeypatch.setattr(haar, "_BATCH_ENTRIES", 3)
            calls = []
            product_norms = pietsch._product_norms
            monkeypatch.setattr(
                pietsch, "_product_norms", lambda *a: calls.append(a) or product_norms(*a)
            )
            assert check_multiplier_bounds(u, p, phis, m, q=q) == whole
            assert [len(call[1]) for call in calls] == [1] * len(phis)
            monkeypatch.undo()

    def test_once_per_batch_and_no_expansion_per_row(self, monkeypatch):
        # the Hardy and vector routes read ||u|| from the measure's own
        # verification; the TL routes, whose measure was built on |u|^(q/2),
        # a check at another p and a measure built from a dict compute it
        # once per batch
        rng = np.random.default_rng(8484)
        routes = []
        for u, p, m, q in self._routes():
            copied = dict(zip(u.support, m._field_rows("weights", u).tolist()))
            routes.append((u, p, m, q, [u] if q else []))
            routes.append((u, p / 2.0, m, q, [u]))
            routes.append((u, p, PietschMeasure(copied, m.normalizer, m.exponent), q, [u]))
        for u, p, m, q, computed in routes:
            phis = self._phis(u, rng)
            want = check_multiplier_bounds(u, p, phis, m, q=q)
            norms = []
            for name in ("_hp_norm", "_tl_norm"):
                fn = getattr(pietsch, name)
                monkeypatch.setattr(
                    pietsch, name, lambda *a, fn=fn: norms.append(a) or fn(*a)
                )
            built = []
            from_rows = HaarExpansion._from_rows.__func__
            monkeypatch.setattr(
                HaarExpansion,
                "_from_rows",
                classmethod(lambda cls, *a: built.append(a) or from_rows(cls, *a)),
            )
            assert check_multiplier_bounds(u, p, phis, m, q=q) == want
            assert [call[0] for call in norms] == computed and built == []
            monkeypatch.undo()

    def test_leaf_grid_memory_bounded(self):
        rng = np.random.default_rng(8585)
        u = _sparse_expansion(rng, 16, 6000)
        assert not _on_atoms(len(u.support), u.max_level)
        m = weights_hp(u, 1.0)
        phis = rng.uniform(-1.0, 1.0, (64, len(u.support)))
        tracemalloc.start()
        try:
            reports = check_multiplier_bounds(u, 1.0, phis, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(report.ok for report in reports)
        # one K x 2^N float array would take 32 MB; the batch stays below half
        assert peak < 64 * (1 << 16) * 8 // 2, peak


def _keyed(mapping, keys):
    """mapping with each key replaced by an equal but distinct object."""
    return dict(zip(keys, mapping.values()))


def _orders(mapping, u, foreign=0.25):
    """mapping in support order; reversed; with a third of its keys left out;
    with a foreign key added, of value `foreign`; and with its keys as plain
    (level, position) tuples and as rebuilt intervals, equal to u's support
    but distinct."""
    items = list(mapping.items())
    yield mapping
    yield dict(reversed(items))
    yield dict(items[i] for i in range(len(items)) if i % 3)
    yield {**mapping, iv(u.max_level + 1, 0): foreign}
    yield _keyed(mapping, [tuple(key) for key in mapping])
    yield _keyed(mapping, [iv(*key) for key in mapping])


class TestSupportOrderReads:
    """A plain dict keyed by u's support in support order is read in one
    pass over its values; every other mapping by key. Both paths give the
    reports and verdicts of the per-interval oracle."""

    def _routes(self):
        rng = np.random.default_rng(9191)
        u = random_expansion(rng, 6)
        deep = _sparse_expansion(rng, 14, 40)
        v = random_expansion(rng, 5, dimension=2)
        deep_v = _sparse_expansion(rng, 14, 40, dimension=2)
        assert not _on_atoms(len(u.support), u.max_level)
        assert _on_atoms(len(deep.support), deep.max_level)
        assert _on_atoms(len(deep_v.support), deep_v.max_level)
        return [
            (u, 1.0, weights_hp(u, 1.0), None),
            (deep, 0.5, weights_hp(deep, 0.5), None),
            (u, 1.5, weights_tl(u, 1.5, 3.0), 3.0),
            (deep, 1.0, weights_tl(deep, 1.0, 4.0), 4.0),
            (v, 1.5, weights_vector(v, 1.5), None),
            (deep_v, 0.5, weights_vector(deep_v, 0.5), None),
        ]

    def _measures(self, m, u):
        """m in every order of `_orders`, doubled (the scale-omega mutant),
        and with a NaN and a negative weight."""
        for weights in _orders(m.weights, u, foreign=0.0):
            yield PietschMeasure(weights, m.normalizer, m.exponent)
        first = next(iter(m.weights))
        for weights in (
            {k: 2.0 * w for k, w in m.weights.items()},
            {**m.weights, first: math.nan},
            {**m.weights, first: -0.25},
        ):
            yield PietschMeasure(weights, m.normalizer, m.exponent)

    def _by_key(self, monkeypatch):
        """Send every read down the by-key path."""
        monkeypatch.setattr(haar, "_support_order", lambda mapping, u: False)

    def test_reports_match_by_key_and_oracle(self, monkeypatch):
        rng = np.random.default_rng(9292)
        for u, p, m, q in self._routes():
            phi = dict(zip(u.support, rng.uniform(-1.0, 1.0, len(u.support)).tolist()))
            cases = [
                (phi_k, measure)
                for measure in self._measures(m, u)
                for phi_k in _orders(phi, u)
            ]
            # repr: a NaN weight gives NaN fields, and repr tells floats apart
            # bit for bit where == does not
            got = [repr(_outcome(check_multiplier_bound, u, p, *case, q=q)) for case in cases]
            want = [
                repr(_outcome(pietsch_oracle.check_multiplier_bound, u, p, *case, q=q))
                for case in cases
            ]
            assert got == want
            self._by_key(monkeypatch)
            by_key = [
                repr(_outcome(check_multiplier_bound, u, p, *case, q=q)) for case in cases
            ]
            assert by_key == got
            monkeypatch.undo()
            foreign = [
                report for (_, measure), report in zip(cases, got)
                if not measure.weights.keys() <= set(u.support)
            ]
            assert foreign and all(
                report == repr((ValueError, "measure does not match the expansion"))
                for report in foreign
            )

    def test_validate_matches_by_key_and_oracle(self, monkeypatch):
        for u, _, m, _ in self._routes():
            measures = list(self._measures(m, u))
            got = [validate_measure(measure, u) for measure in measures]
            assert got == [pietsch_oracle.validate_measure(measure, u) for measure in measures]
            self._by_key(monkeypatch)
            assert [validate_measure(measure, u) for measure in measures] == got
            monkeypatch.undo()
            # in order, reversed, missing and rebuilt keys pass; the foreign
            # key, the doubled, the NaN and the negative weights fail
            assert got == [True, True, True, False, True, True, False, False, False]

    def test_support_order_never_reads_by_key(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("by-key path called")

        rng = np.random.default_rng(9393)
        routes = self._routes()
        expected = []
        for u, p, m, q in routes:
            phi = dict(zip(u.support, rng.uniform(-1.0, 1.0, len(u.support)).tolist()))
            expected.append((phi, check_multiplier_bound(u, p, phi, m, q=q)))
        monkeypatch.setattr(haar, "_rows_by_key", refuse)
        monkeypatch.setattr(HaarExpansion, "coeffs", property(refuse))
        for (u, p, m, q), (phi, report) in zip(routes, expected):
            assert haar._support_order(phi, u) and haar._support_order(m.weights, u)
            assert check_multiplier_bound(u, p, phi, m, q=q) == report
            assert check_multiplier_bound(u, p, _keyed(phi, [iv(*k) for k in phi]), m, q=q) == report
            assert validate_measure(m, u)
            with pytest.raises(AssertionError, match="by-key path"):
                check_multiplier_bound(u, p, dict(reversed(phi.items())), m, q=q)


class TestNegativeWeightedSum:
    """A measure with negative weights can make the weighted sum negative,
    whose root 1/s is not real: the check raises a ValueError that names the
    sum, as the oracle does, not a TypeError from a complex root."""

    def _case(self):
        u = HaarExpansion.scalar(1, {iv(0, 0): 1.0, iv(1, 0): 0.5})
        m = PietschMeasure({iv(0, 0): -0.5, iv(1, 0): 0.1}, 1.0, 2.0)
        return u, m

    def test_single_check_names_the_sum(self):
        u, m = self._case()
        phi = {iv(0, 0): 1.0}
        with pytest.raises(ValueError, match=r"weighted sum -0\.5 is negative"):
            check_multiplier_bound(u, 1.0, phi, m)
        assert _outcome(check_multiplier_bound, u, 1.0, phi, m) == _outcome(
            pietsch_oracle.check_multiplier_bound, u, 1.0, phi, m
        )
        # the other row's weight is positive: that multiplier passes
        assert check_multiplier_bound(u, 1.0, {iv(1, 0): 1.0}, m).weighted_sum == 0.1

    def test_batch_raises_at_the_negative_row(self):
        u, m = self._case()
        for phis in ([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match=r"weighted sum -0\.5 is negative"):
                check_multiplier_bounds(u, 1.0, np.array(phis), m)


class TestClosedFormAtTwo:
    """At p = 2 the Hardy weights of u are |x_I|^2 |I| / ||u||_2^2 and A = 1
    in exact arithmetic, so the constant multiplier 1 meets the bound with
    equality. The computed A is 1 up to a few ulps (1 + 2^-51 at seed 3)."""

    def test_identity_multiplier_is_equality(self):
        for seed in range(8):
            u = gen_random(8, 1, 0.5, seed)
            m = weights_hp(u, 2.0)
            assert m.normalizer == pytest.approx(1.0, rel=1e-12)
            phi = dict.fromkeys(u.support, 1.0)
            assert haar._support_order(phi, u)
            report = check_multiplier_bound(u, 2.0, phi, m)
            assert report.ok
            assert report.lhs == pytest.approx(hp_norm(u, 2.0), rel=1e-12)
            assert report.lhs == pytest.approx(l2_norm(u), rel=1e-12)
            assert report.weighted_sum == pytest.approx(m.total(), rel=1e-12)


def _kept(m):
    """Whether m still keeps its support-order rows and has built no dict."""
    return "weights" not in vars(m) and "_rows" in vars(m)


class TestMeasureStorage:
    """A constructor's measure keeps its weights in support order and builds
    the `weights` dict on first read; from then on the dict is the measure.
    Measures built from dicts, `replace`, `==`, `repr`, pickling and copies
    behave as for a dict-valued dataclass."""

    def _cases(self):
        rng = np.random.default_rng(4242)
        u = random_expansion(rng, 6)
        v = random_expansion(rng, 5, dimension=2)
        return [
            (u, 1.0, lambda: weights_hp(u, 1.0), None),
            (u, 1.5, lambda: weights_tl(u, 1.5, 3.0), 3.0),
            (v, 1.5, lambda: weights_vector(v, 1.5), None),
        ]

    def test_checks_read_the_rows_and_build_no_dict(self):
        rng = np.random.default_rng(4343)
        for u, p, build, q in self._cases():
            m = build()
            phis = rng.uniform(-1.0, 1.0, (3, len(u.support)))
            phi = dict(zip(u.support, phis[0].tolist()))
            got = (
                validate_measure(m, u),
                m.total(),
                check_multiplier_bounds(u, p, phis, m, q=q),
                check_multiplier_bound(u, p, phi, m, q=q),
            )
            assert _kept(m)
            plain = PietschMeasure(dict(build().weights), m.normalizer, m.exponent)
            assert got == (
                validate_measure(plain, u),
                plain.total(),
                check_multiplier_bounds(u, p, phis, plain, q=q),
                check_multiplier_bound(u, p, phi, plain, q=q),
            )
            assert got[1] == math.fsum(m.weights.values()) and not _kept(m)

    def test_dataclass_surface(self):
        for u, _, build, _ in self._cases():
            m = build()
            plain = PietschMeasure(
                weights=dict(build().weights), normalizer=m.normalizer, exponent=m.exponent
            )
            for measure in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
                assert _kept(measure) and measure == plain
            assert _kept(m)
            assert repr(build()) == repr(plain)
            assert m == plain and plain == build() and m != replace(plain, exponent=1.0)
            for measure in (build(), plain):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(measure)
                rescaled = replace(measure, normalizer=2.0)
                assert rescaled.weights is measure.weights and rescaled.normalizer == 2.0
                doubled = replace(measure, weights={k: 2 * w for k, w in measure.weights.items()})
                assert not validate_measure(doubled, u)
                for shared in (pickle.loads(pickle.dumps(measure)), copy.deepcopy(measure)):
                    assert shared == measure and not _kept(shared)

    def test_copies_read_only_and_without_source(self, monkeypatch):
        # a deep copy or a pickle round trip keeps the weights read-only and
        # drops the source: no identity survives either, so its checks
        # compute ||u|| afresh, bit for bit; a `copy.copy` shares the source
        rng = np.random.default_rng(4545)
        for u, p, build, q in self._cases():
            m = build()
            phis = rng.uniform(-1.0, 1.0, (3, len(u.support)))
            want = repr(check_multiplier_bounds(u, p, phis, m, q=q))
            shared = copy.copy(m)
            assert shared._built_from(u) is not None or q is not None
            assert shared._built_from(u) == m._built_from(u)
            twin, deep = copy.deepcopy((u, m))  # the memo keeps u's copy alike
            norms = []
            hp_norm_core = pietsch._hp_norm
            monkeypatch.setattr(
                pietsch, "_hp_norm", lambda *a: norms.append(a[0]) or hp_norm_core(*a)
            )
            haar_oracle.assert_read_only(m)
            assert shared._kept("weights") is m._kept("weights")
            for copied, v in ((deep, twin), (pickle.loads(pickle.dumps(m)), u)):
                assert len(haar_oracle.assert_read_only(copied)) == 1
                assert copied._built_from(v) is copied._built_from(u) is None
                assert repr(check_multiplier_bounds(v, p, phis, copied, q=q)) == want
            assert len(norms) == (0 if q else 2)
            norms.clear()
            assert repr(check_multiplier_bounds(u, p, phis, shared, q=q)) == want
            assert norms == []
            monkeypatch.undo()

    def test_a_read_dict_is_the_measure(self):
        rng = np.random.default_rng(4444)
        for u, p, build, q in self._cases():
            phi = dict(zip(u.support, rng.uniform(-1.0, 1.0, len(u.support)).tolist()))
            first = u.support[0]
            for change in (
                lambda w: w.update({k: 2.0 * x for k, x in w.items()}),
                lambda w: w.update({first: math.nan}),
                lambda w: w.update({first: -0.25}),
                lambda w: w.pop(first),
                lambda w: w.update({iv(u.max_level + 1, 0): 0.0}),
            ):
                m = build()
                change(m.weights)
                plain = PietschMeasure(dict(m.weights), m.normalizer, m.exponent)
                assert not _kept(m)
                assert validate_measure(m, u) == validate_measure(plain, u)
                assert m.total() == plain.total() or math.isnan(m.total())
                assert repr(_outcome(check_multiplier_bound, u, p, phi, m, q=q)) == repr(
                    _outcome(check_multiplier_bound, u, p, phi, plain, q=q)
                )
            assert not validate_measure(m, u)  # the foreign key

    def test_a_copy_keeps_its_rows(self):
        for u, _, build, _ in self._cases():
            m = build()
            twin = copy.copy(m)
            assert m.weights and not _kept(m)
            assert _kept(twin) and validate_measure(twin, u) and _kept(twin)

    def test_foreign_and_nan_keys_refused(self):
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.5, (2, 3): -0.25})
        weights = weights_hp(u, 1.0).weights
        for key in (iv(3, 0), iv(1, 1), math.nan, (0, 0, 0)):
            bad = PietschMeasure(weights={**weights, key: 0.0}, normalizer=1.0, exponent=2.0)
            assert not validate_measure(bad, u)
            with pytest.raises(ValueError, match="does not match the expansion"):
                check_multiplier_bound(u, 1.0, {}, bad)
        nan_weight = PietschMeasure({**weights, iv(0, 0): math.nan}, 1.0, 2.0)
        assert not validate_measure(nan_weight, u)

    def test_other_supports(self):
        rng = np.random.default_rng(4545)
        u = random_expansion(rng, 5)
        m = weights_hp(u, 1.0)
        # an equal support of other objects still reads the rows
        twin = HaarExpansion(u.max_level, 1, {iv(*key): value for key, value in u.coeffs.items()})
        assert twin.support is not u.support and m._own_rows("weights", twin) is not None
        assert validate_measure(m, twin) and _kept(m)
        # a larger support reads the dict by key; a smaller one refuses it
        wider = HaarExpansion(u.max_level + 1, 1, {**u.coeffs, iv(u.max_level + 1, 0): 1.0})
        assert validate_measure(m, wider) and not _kept(m)
        narrower = HaarExpansion(u.max_level, 1, dict(list(u.coeffs.items())[1:]))
        assert not validate_measure(weights_hp(u, 1.0), narrower)
        with pytest.raises(ValueError, match="does not match the expansion"):
            check_multiplier_bound(narrower, 1.0, {}, weights_hp(u, 1.0))


class TestDeepHardyPath:
    """`weights_hp` and 8 `check_multiplier_bound` calls at max level 14, as
    the deep-hardy bench op makes them: no weights dict, no `np.fromiter`
    but the 8 phi reads, no `math.fsum` over a row the kernel bins, and a
    lower memory peak than the constructor that built the dict."""

    def test_no_dict_no_weight_reads_no_long_fsum(self, monkeypatch):
        u = gen_random(14, 1, 0.5, 3)
        phis = np.random.default_rng([3, 8]).uniform(-1.0, 1.0, (8, len(u.support)))
        phis = [dict(zip(u.support, row)) for row in phis.tolist()]
        want = [check_multiplier_bound(u, 1.0, phi, weights_hp(u, 1.0)) for phi in phis]
        reads, sums = [], []
        fromiter, fsum = np.fromiter, math.fsum

        def counted_fromiter(it, *args, **kwargs):
            reads.append(type(it).__name__)
            return fromiter(it, *args, **kwargs)

        def counted_fsum(it):
            sums.append(len(it) if hasattr(it, "__len__") else -1)
            return fsum(it)

        monkeypatch.setattr(np, "fromiter", counted_fromiter)
        monkeypatch.setattr(math, "fsum", counted_fsum)
        m = weights_hp(u, 1.0)
        got = [check_multiplier_bound(u, 1.0, phi, m) for phi in phis]
        monkeypatch.undo()
        assert got == want and all(report.ok for report in got)
        assert _kept(m)
        assert reads.count("dict_values") == 8
        assert len(u.support) > _FSUM_MIN_ROW and sums and max(sums) < _FSUM_MIN_ROW

    def test_weights_peak(self):
        u = gen_random(14, 1, 0.5, 0)
        weights_hp(u, 1.0)
        tracemalloc.start()
        try:
            m = weights_hp(u, 1.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the constructor that built the dict peaked at 2,738,529 bytes and
        # kept 986,729 on this input (Python 3.11.7, numpy 2.4.6); the
        # measure keeps one float array of 16,402 rows and its leaf grid,
        # an int64 owner per leaf and parent per row: 397,884 bytes
        assert peak <= 2_738_529, peak
        assert vars(m)["_grid"].lengths is None and _kept(m)
        assert kept <= 32 * len(u.support), (kept, len(u.support))

    def test_atom_grid_measure_kept_bytes(self):
        # the sparse-deep input's shape: 4000 draws at max level 20, about
        # 2.6k support rows; the measure keeps its weights and its atom grid
        rng = np.random.default_rng(0)
        levels = rng.integers(0, 21, 4000)
        positions = rng.integers(0, 1 << levels)
        coeffs = {}
        for level, pos, value in zip(
            levels.tolist(), positions.tolist(), rng.standard_normal(4000).tolist()
        ):
            coeffs.setdefault(iv(level, pos), value)
        u = HaarExpansion(20, 1, coeffs)
        weights_hp(u, 1.0)
        tracemalloc.start()
        try:
            m = weights_hp(u, 1.0)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vars(m)["_grid"].lengths is not None and _kept(m)
        assert kept <= 64 * len(u.support), (kept, len(u.support))
