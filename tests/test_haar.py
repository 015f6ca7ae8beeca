"""Expansions, square functions and norms, checked against direct pointwise
evaluation of the Haar sums."""

import math

import numpy as np
import pytest

from haarmult import (
    DyadicInterval,
    HaarExpansion,
    convexify,
    evaluate_haar,
    hp_norm,
    l2_norm,
    multiply,
    q_variation,
    square_function,
    tl_norm,
)
from haarmult.haar import square_leaf_sums


def iv(level, pos):
    return DyadicInterval(level, pos)


def scalar(max_level, pairs):
    return HaarExpansion.scalar(
        max_level, {iv(level, pos): value for (level, pos), value in pairs.items()}
    )


def random_scalar(rng, max_level, density=0.6):
    coeffs = {}
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                coeffs[iv(level, pos)] = float(rng.standard_normal())
    if not coeffs:
        coeffs[iv(0, 0)] = float(rng.standard_normal()) or 1.0
    return HaarExpansion.scalar(max_level, coeffs)


def pointwise_haar_sum(u, t):
    """Direct evaluation of sum_I x_I h_I(t); the independent route."""
    total = np.zeros(u.dimension)
    for interval, vector in u.coeffs.items():
        sign = evaluate_haar(interval, t)
        if sign:
            total += sign * np.asarray(vector)
    return total


class TestExpansion:
    def test_zero_coefficients_dropped(self):
        u = scalar(2, {(0, 0): 1.0, (1, 1): 0.0})
        assert u.support == (iv(0, 0),)

    def test_level_above_max_rejected(self):
        with pytest.raises(ValueError):
            scalar(1, {(2, 0): 1.0})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HaarExpansion(1, 2, {iv(0, 0): (1.0,)})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scalar(1, {(0, 0): math.inf})

    def test_restrict(self):
        u = scalar(2, {(0, 0): 1.0, (1, 0): 2.0})
        assert u.restrict([iv(1, 0)]).support == (iv(1, 0),)

    def test_support_arrays_in_support_order(self):
        u = HaarExpansion(2, 2, {iv(2, 3): (1.0, 2.0), iv(0, 0): [3, 4], iv(1, 1): (0, 0)})
        assert u.support == (iv(0, 0), iv(2, 3))
        assert u.levels.tolist() == [0, 2]
        assert u.positions.tolist() == [0, 3]
        assert u.values.tolist() == [[3.0, 4.0], [1.0, 2.0]]
        assert u.squares.tolist() == [25.0, 5.0]
        assert u.levels.dtype == u.positions.dtype == np.int64

    def test_support_arrays_read_only(self):
        u = scalar(2, {(0, 0): 1.0, (1, 1): 2.0})
        for product in (u, multiply({iv(1, 1): 3.0}, u), convexify(u, 3.0)):
            for array in (product.levels, product.positions, product.values, product.squares):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 7
        with pytest.raises(AttributeError):
            u.values = np.zeros((2, 1))

    def test_empty_support_arrays(self):
        u = HaarExpansion(3, 2, {iv(1, 0): (0.0, 0.0)})
        assert u.is_zero
        assert u.values.shape == (0, 2)
        assert len(u.levels) == len(u.positions) == len(u.squares) == 0

    def test_squares_overflow_to_inf_without_warning(self):
        # the squares of huge coefficients leave the float range silently,
        # and every norm then fails closed
        u = scalar(1, {(0, 0): 1e160, (1, 0): 1e-200})
        assert u.squares.tolist() == [math.inf, 0.0]
        with pytest.raises(OverflowError):
            hp_norm(u, 1.0)
        # a vector whose squares are finite but whose sum is not
        v = HaarExpansion(0, 2, {iv(0, 0): (1.3e154, 1.3e154)})
        assert v.squares.tolist() == [math.inf]
        with pytest.raises(OverflowError):
            hp_norm(v, 1.0)

    def test_multiply_drops_zero_and_rejects_non_finite_products(self):
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.25, (1, 1): 2.0})
        product = multiply({iv(0, 0): 0.0, iv(1, 0): 5e-324, iv(1, 1): 3.0}, u)
        assert product.coeffs == {iv(1, 1): (6.0,)}
        with pytest.raises(ValueError, match="coefficient at 1/1 is not finite"):
            multiply({iv(1, 1): 1e308}, u)


class TestEvaluateHaar:
    def test_left_half(self):
        assert evaluate_haar(iv(0, 0), 0.25) == 1

    def test_right_half(self):
        assert evaluate_haar(iv(0, 0), 0.75) == -1

    def test_outside(self):
        assert evaluate_haar(iv(1, 0), 0.75) == 0

    def test_boundaries(self):
        assert evaluate_haar(iv(1, 1), 0.5) == 1
        assert evaluate_haar(iv(1, 1), 0.7499) == 1
        assert evaluate_haar(iv(1, 1), 0.75) == -1


class TestSquareFunction:
    def test_single_interval_constant_one(self):
        s = square_function(scalar(0, {(0, 0): 1.0}))
        assert s(0.3) == 1.0

    def test_two_intervals(self):
        s = square_function(scalar(1, {(0, 0): 1.0, (1, 0): 1.0}))
        assert s(0.25) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert s(0.75) == 1.0

    def test_vector_euclidean(self):
        u = HaarExpansion(0, 2, {iv(0, 0): (3.0, 4.0)})
        assert square_function(u)(0.5) == 5.0


class TestQVariation:
    def test_q_two_matches_square_function(self):
        rng = np.random.default_rng(5)
        u = random_scalar(rng, 4)
        np.testing.assert_allclose(
            q_variation(u, 2.0).values, square_function(u).values, rtol=1e-14
        )

    def test_q_one_sums_magnitudes(self):
        s = q_variation(scalar(1, {(0, 0): 1.0, (1, 0): 1.0}), 1.0)
        assert s(0.25) == 2.0
        assert s(0.75) == 1.0

    def test_single_interval_any_q(self):
        s = q_variation(scalar(1, {(1, 0): -2.5}), 0.7)
        assert s(0.1) == pytest.approx(2.5, rel=1e-15)
        assert s(0.6) == 0.0

    def test_vector_rejected(self):
        u = HaarExpansion(0, 2, {iv(0, 0): (1.0, 1.0)})
        with pytest.raises(ValueError):
            q_variation(u, 2.0)

    def test_pointwise_nonincreasing_in_q(self):
        # the q-aggregate of the per-leaf coefficient multiset shrinks as q
        # grows, so the step functions are ordered pointwise
        rng = np.random.default_rng(37)
        for _ in range(100):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            qs = sorted(rng.uniform(0.4, 5.0, size=3))
            steps = [q_variation(u, q).values for q in qs]
            assert np.all(steps[0] >= steps[1] * (1 - 1e-12))
            assert np.all(steps[1] >= steps[2] * (1 - 1e-12))


class TestHpNorm:
    def test_single_haar_any_p(self):
        u = scalar(0, {(0, 0): 1.0})
        for p in (0.5, 1.0, 1.5, 2.0):
            assert hp_norm(u, p) == 1.0

    def test_two_intervals_p_two(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert hp_norm(u, 2.0) == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_two_intervals_p_one(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert hp_norm(u, 1.0) == pytest.approx((math.sqrt(2) + 1) / 2, rel=1e-15)

    def test_p_out_of_range(self):
        u = scalar(0, {(0, 0): 1.0})
        for p in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                hp_norm(u, p)

    def test_zero_expansion(self):
        assert hp_norm(HaarExpansion.scalar(2, {}), 1.0) == 0.0

    def test_parseval_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            exact = math.fsum(
                u.coefficient_square(i) * 2.0 ** (-i.level) for i in u.coeffs
            )
            assert hp_norm(u, 2.0) ** 2 == pytest.approx(exact, rel=1e-12)

    def test_pointwise_oracle_p_two(self):
        # the norm from the square function must match direct evaluation of
        # the signed Haar sum (orthogonality of the system); the sum is
        # constant on half-leaves, so each leaf integral averages two samples
        rng = np.random.default_rng(23)
        for _ in range(50):
            max_level = int(rng.integers(0, 7))
            u = random_scalar(rng, max_level)
            leaves = 1 << max_level
            total = 0.0
            for j in range(leaves):
                left = float(pointwise_haar_sum(u, (j + 0.25) / leaves)[0])
                right = float(pointwise_haar_sum(u, (j + 0.75) / leaves)[0])
                total += (left * left + right * right) / 2.0 / leaves
            assert hp_norm(u, 2.0) == pytest.approx(math.sqrt(total), rel=1e-12)


class TestTlNorm:
    def test_p_equals_q_two_matches_hp(self):
        rng = np.random.default_rng(3)
        u = random_scalar(rng, 5)
        assert tl_norm(u, 2.0, 2.0) == pytest.approx(hp_norm(u, 2.0), rel=1e-14)

    def test_single_haar_any_pq(self):
        u = scalar(0, {(0, 0): 1.0})
        for p, q in ((0.5, 1.0), (1.0, 3.0), (2.0, 4.0)):
            assert tl_norm(u, p, q) == pytest.approx(1.0, rel=1e-15)

    def test_p_above_q_rejected(self):
        u = scalar(0, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            tl_norm(u, 3.0, 2.0)

    def test_convexification_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            p, q = sorted(rng.uniform(0.5, 4.0, size=2))
            lhs = tl_norm(u, p, q)
            rhs = hp_norm(convexify(u, q), 2.0 * p / q) ** (2.0 / q)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestFloatRange:
    # the squares (and q-th powers) of these coefficients under- or overflow
    # although the norms themselves, about the scale, are representable
    @staticmethod
    def scaled(scale):
        return scalar(1, {(0, 0): scale, (1, 0): 0.5 * scale, (1, 1): -0.25 * scale})

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_norms_fail_closed(self, scale):
        u = self.scaled(scale)
        with pytest.raises(OverflowError, match="float range"):
            hp_norm(u, 1.0)
        with pytest.raises(OverflowError, match="float range"):
            tl_norm(u, 1.0, 2.0)

    def test_representable_scale_kept(self):
        u = self.scaled(1.0)
        small = self.scaled(1e-150)
        assert hp_norm(small, 1.0) == pytest.approx(1e-150 * hp_norm(u, 1.0), rel=1e-12)
        assert tl_norm(small, 1.0, 2.0) == pytest.approx(
            1e-150 * tl_norm(u, 1.0, 2.0), rel=1e-12
        )

    def test_zero_expansion_is_zero(self):
        assert tl_norm(HaarExpansion.scalar(2, {}), 1.0, 2.0) == 0.0


class TestConvexify:
    def test_q_two_absolute_value(self):
        u = scalar(1, {(0, 0): -3.0, (1, 1): 2.0})
        got = convexify(u, 2.0)
        assert got.coeffs[iv(0, 0)] == (3.0,)
        assert got.coeffs[iv(1, 1)] == (2.0,)

    def test_power_four(self):
        assert convexify(scalar(0, {(0, 0): 4.0}), 4.0).coeffs[iv(0, 0)] == (16.0,)

    def test_power_half(self):
        got = convexify(scalar(0, {(0, 0): 0.25}), 1.0)
        assert got.coeffs[iv(0, 0)] == (0.5,)


class TestL2Norm:
    def test_single_haar(self):
        assert l2_norm(scalar(0, {(0, 0): 1.0})) == 1.0

    def test_two_intervals(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert l2_norm(u) == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_matches_hp_norm_at_two(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            assert l2_norm(u) == pytest.approx(hp_norm(u, 2.0), rel=1e-12)


class TestMultiply:
    def test_identity_multiplier(self):
        u = scalar(2, {(0, 0): 1.0, (2, 3): -2.0})
        phi = {i: 1.0 for i in u.support}
        assert multiply(phi, u) == u

    def test_zero_multiplier(self):
        u = scalar(2, {(0, 0): 1.0})
        assert multiply({}, u).is_zero

    def test_contraction_property(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            p = float(rng.uniform(0.3, 2.0))
            phi = {i: float(rng.uniform(-1, 1)) for i in u.support}
            bound = max(abs(v) for v in phi.values()) if phi else 0.0
            assert hp_norm(multiply(phi, u), p) <= bound * hp_norm(u, p) * (1 + 1e-12)


class TestLeafSums:
    def test_accumulates_squares(self):
        u = HaarExpansion(1, 2, {iv(0, 0): (1.0, 2.0), iv(1, 1): (2.0, 0.0)})
        np.testing.assert_allclose(square_leaf_sums(u), [5.0, 9.0])
