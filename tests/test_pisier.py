"""Lattice factorization: exactness of the split, the unit bound on the
second factor, and the sampled lattice-norm machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from haarmult import (
    DegenerateThetaError,
    DyadicInterval,
    Factorization,
    HaarExpansion,
    ZeroInputError,
    factorize,
    theta,
    tl_norm,
    verify_factorization,
    x0_norm_estimate,
)


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
        coeffs[iv(0, 0)] = 1.0
    return HaarExpansion.scalar(max_level, coeffs)


class TestTheta:
    def test_known_value(self):
        assert theta(4.0 / 3.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_small_near_one(self):
        assert 0 < theta(1.0 + 1e-9, 2.0) < 1e-8

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(1.0001, 5.0))
            q = float(rng.uniform(p * 1.0001, 10.0))
            assert 0.0 < theta(p, q) < 1.0

    def test_p_equals_q_degenerate(self):
        with pytest.raises(DegenerateThetaError):
            theta(2.0, 2.0)

    def test_p_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            theta(1.0, 2.0)
        with pytest.raises(ValueError):
            theta(0.5, 2.0)

    def test_p_above_q_rejected(self):
        with pytest.raises(ValueError):
            theta(3.0, 2.0)


class TestFactorize:
    def test_single_interval(self):
        u = scalar(0, {(0, 0): 1.0})
        f = factorize(u, 4.0 / 3.0, 2.0)
        assert f.theta == pytest.approx(0.5, rel=1e-15)
        assert f.y[iv(0, 0)] == pytest.approx(1.0, rel=1e-12)
        assert f.x[iv(0, 0)] == pytest.approx(1.0, rel=1e-12)

    def test_single_interval_scaled(self):
        u = scalar(0, {(0, 0): 2.0})
        f = factorize(u, 4.0 / 3.0, 2.0)
        # weight 1 concentrates on the only interval, so y = 1 and x = |u|^2
        assert f.y[iv(0, 0)] == pytest.approx(1.0, rel=1e-12)
        assert f.x[iv(0, 0)] == pytest.approx(4.0, rel=1e-12)

    def test_product_identity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            p, q = (4.0 / 3.0, 2.0) if rng.random() < 0.5 else (1.5, 3.0)
            f = factorize(u, p, q)
            for interval, (value,) in u.coeffs.items():
                product = f.x[interval] ** (1 - f.theta) * f.y[interval] ** f.theta
                assert product == pytest.approx(abs(value), rel=1e-10)

    def test_y_norm_is_weight_total(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            f = factorize(u, 1.5, 3.0)
            y_norm_q = math.fsum(
                f.y[i] ** 3.0 * 2.0 ** (-i.level) for i in u.coeffs
            )
            assert y_norm_q <= 1.0 + 1e-12

    def test_zero_input(self):
        with pytest.raises(ZeroInputError):
            factorize(HaarExpansion.scalar(1, {}), 1.5, 2.0)

    def test_degenerate_exponent(self):
        with pytest.raises(DegenerateThetaError):
            factorize(scalar(0, {(0, 0): 1.0}), 2.0, 2.0)


class TestVerifyFactorization:
    def test_accepts_factorize_output(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            f = factorize(u, 1.5, 3.0)
            assert verify_factorization(u, f)

    def test_perturbed_x_rejected(self):
        u = scalar(0, {(0, 0): 1.0})
        f = factorize(u, 4.0 / 3.0, 2.0)
        bad = Factorization(
            x={iv(0, 0): f.x[iv(0, 0)] + 1e-3},
            y=dict(f.y),
            theta=f.theta,
            p=f.p,
            q=f.q,
        )
        assert not verify_factorization(u, bad)

    def test_wrong_support_rejected(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        f = factorize(u, 4.0 / 3.0, 2.0)
        bad = Factorization(
            x={iv(0, 0): f.x[iv(0, 0)]},
            y={iv(0, 0): f.y[iv(0, 0)]},
            theta=f.theta,
            p=f.p,
            q=f.q,
        )
        assert not verify_factorization(u, bad)


class TestLatticeNormEstimate:
    def test_canonical_candidate_value(self):
        # z = y recovers the source exactly, for any expansion
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            p, q = 1.5, 3.0
            f = factorize(u, p, q)
            value = x0_norm_estimate(f, u, 0)
            expected = tl_norm(u, p, q) ** (1.0 / (1.0 - f.theta))
            assert value == pytest.approx(expected, rel=1e-10)

    def test_single_interval_candidate(self):
        u = scalar(0, {(0, 0): 1.0})
        f = factorize(u, 4.0 / 3.0, 2.0)
        assert x0_norm_estimate(f, u, 0) == pytest.approx(1.0, rel=1e-12)

    def test_sampling_respects_bounds(self):
        # every sampled candidate passes the exact chain; raises otherwise
        rng = np.random.default_rng(5)
        for trial in range(20):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            f = factorize(u, 4.0 / 3.0, 2.0)
            value = x0_norm_estimate(f, u, 100, seed=trial)
            assert value >= tl_norm(u, 4.0 / 3.0, 2.0) ** (1.0 / (1.0 - f.theta)) * (
                1 - 1e-12
            )

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(6)
        u = random_scalar(rng, 5)
        f = factorize(u, 1.5, 3.0)
        assert x0_norm_estimate(f, u, 50, seed=9) == x0_norm_estimate(
            f, u, 50, seed=9
        )

    def test_mismatched_factorization_rejected(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        f = factorize(u, 1.5, 3.0)
        tampered = Factorization(
            x=dict(f.x),
            y={i: v * 1.5 for i, v in f.y.items()},
            theta=f.theta,
            p=f.p,
            q=f.q,
        )
        with pytest.raises(ValueError):
            x0_norm_estimate(tampered, u, 0)

    def test_negative_sample_count_rejected(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        f = factorize(u, 1.5, 3.0)
        with pytest.raises(ValueError, match="n_samples"):
            x0_norm_estimate(f, u, -1)

    def test_memory_linear_in_leaves(self):
        # sparse deep expansion: the leaf sums may hold one 2^20 row per
        # candidate, never one per support interval (that would be ~0.5 GB)
        rng = np.random.default_rng(64)
        coeffs = {}
        for _ in range(64):
            level = int(rng.integers(0, 21))
            coeffs[iv(level, int(rng.integers(0, 1 << level)))] = float(
                rng.standard_normal()
            )
        u = HaarExpansion.scalar(20, coeffs)
        f = factorize(u, 1.5, 3.0)
        n_samples = 4
        tracemalloc.start()
        try:
            x0_norm_estimate(f, u, n_samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (n_samples + 1) * (1 << 20) * 8
