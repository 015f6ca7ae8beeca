"""Summing weights: normalization, the multiplier bound, and exactness of the
level-2 block measures."""

import math

import numpy as np
import pytest

from haarmult import (
    DyadicInterval,
    HaarExpansion,
    PietschMeasure,
    VerificationError,
    ZeroInputError,
    check_multiplier_bound,
    decompose,
    h2_measure,
    hp_norm,
    l2_norm,
    multiply,
    validate_measure,
    verify_decomposition,
    weights_hp,
    weights_tl,
    weights_vector,
)

from haarmult import atomic, dyadic

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
                mu = h2_measure(haar_oracle.restrict(u, block))
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
            mu = h2_measure(u)
            phi = {i: float(rng.uniform(-2, 2)) for i in u.support}
            lhs = hp_norm(multiply(phi, u), 2.0) ** 2
            rhs = l2_norm(u) ** 2 * math.fsum(
                phi[i] ** 2 * mu[i] for i in mu
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            h2_measure(HaarExpansion.scalar(0, {}))


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


class TestExtremeScale:
    def test_tiny_scale_weights_fail_closed(self):
        # at 1e-160 the squared norms underflow and the assembled weights
        # total inf; the constructor must refuse to return them
        u = scalar(1, {(0, 0): 1e-160, (1, 0): 0.5e-160, (1, 1): -0.25e-160})
        with pytest.raises(VerificationError):
            weights_hp(u, 1.0)


class _CountingDict(dict):
    """A phi that counts its `get` calls."""

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class TestSupportRowPaths:
    """The verifier and the multiplier check read support rows: no block
    predicate or support family per call, and one phi lookup per row."""

    def test_no_family_and_one_lookup_per_row(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-interval path called")

        rng = np.random.default_rng(61)
        u = random_expansion(rng, 7)
        v = random_expansion(rng, 5, dimension=2)
        monkeypatch.setattr(dyadic, "is_block", refuse)
        monkeypatch.setattr(atomic, "is_block", refuse, raising=False)
        monkeypatch.setattr(HaarExpansion, "support_family", refuse)
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
