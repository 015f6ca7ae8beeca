"""Lattice factorization: exactness of the split, the unit bound on the
second factor, and the sampled lattice-norm machinery."""

import copy
import itertools
import math
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from haarmult import (
    DegenerateThetaError,
    DyadicInterval,
    Factorization,
    HaarExpansion,
    ZeroInputError,
    check_multiplier_bound,
    decompose,
    factorize,
    theta,
    tl_norm,
    verify_decomposition,
    verify_factorization,
    weights_hp,
    weights_tl,
    x0_norm_estimate,
)
from haarmult import VerificationError, haar, pietsch, pisier
from haarmult.cli import gen_random

import haar_oracle
import pisier_oracle


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

    def test_nan_exponents_rejected(self):
        # a NaN fails every comparison, so it meets the exponents' own errors
        nan = float("nan")
        with pytest.raises(ValueError, match="p must exceed 1, got nan"):
            theta(nan, 3.0)
        with pytest.raises(ValueError, match="need p <= q, got p=1.5, q=nan"):
            theta(1.5, nan)
        with pytest.raises(ValueError, match="p must exceed 1"):
            theta(nan, nan)


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

    def test_underflowing_convexification_fails_closed(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1e-3})
        with pytest.raises(OverflowError, match="float range"):
            factorize(u, 1.5, 300.0)

    @pytest.mark.parametrize("value, q", [(1e-3, 1.502), (1e-3, 1.5005), (1e3, 1.502)])
    def test_x_factor_outside_normal_range_fails_closed(self, value, q):
        # theta near 1 raises |u_I| y_I^-theta to a power near 1 / (1 - theta):
        # x_I underflows to 0.0, which fails the product identity, or
        # overflows; both raise one OverflowError naming x and theta
        u = scalar(0, {(0, 0): value})
        message = f"factor x_I at theta={theta(1.5, q)} leaves the normal float range"
        with pytest.raises(OverflowError, match=re.escape(message)):
            factorize(u, 1.5, q)

    def test_scaled_pool_raises_or_verifies(self):
        # coefficients scaled by 10^U(-30, 30) 10^U(-8, 8), q = p + 10^U(-3,
        # 0.5): some factorizations put an x_I past the normal float range
        rng = np.random.default_rng(30)
        outcomes = []
        for k in range(100):
            level = int(rng.integers(1, 6))
            u = gen_random(level, 1, 0.6, k)
            scale = 10.0 ** rng.uniform(-30, 30)
            coeffs = {i: v * scale * 10.0 ** rng.uniform(-8, 8) for i, (v,) in u.coeffs.items()}
            p = rng.uniform(1.05, 1.9)
            q = p + 10.0 ** rng.uniform(-3, 0.5)
            u = HaarExpansion.scalar(level, coeffs)
            if u.is_zero:
                continue
            try:
                f = factorize(u, p, q)
            except OverflowError:
                outcomes.append("raised")
                continue
            assert verify_factorization(u, f)
            outcomes.append("verified")
        assert {"raised", "verified"} <= set(outcomes)


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


class TestFactorizationExponents:
    """A hand-built factorization with q outside (0, inf) fails
    `verify_factorization`, and the lattice estimate refuses p <= 1 after
    its other argument checks."""

    U = scalar(0, {(0, 0): 1.0})

    @pytest.mark.parametrize("q", [math.inf, math.nan, 0.0, -3.0])
    def test_q_outside_range_fails(self, q):
        f = Factorization(x={iv(0, 0): 0.2}, y={iv(0, 0): 5.0}, theta=0.5, p=1.5, q=q)
        assert not verify_factorization(self.U, f)
        assert not verify_factorization(self.U, replace(f, y={iv(0, 0): 1.0}, x={iv(0, 0): 1.0}))
        assert not verify_factorization(self.U, replace(f, q=3.0))  # y breaks the unit bound

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_p_at_most_one_refused(self, p):
        # y matches the weights at p, so only r = p(q-1)/(p-1) is left
        u = scalar(1, {(0, 0): 1.0, (1, 0): 0.5})
        f = factorize(u, 1.5, 3.0)
        m = weights_tl(u, p, 3.0)
        y = {i: (w * 2.0**i.level) ** (1.0 / 3.0) for i, w in m.weights.items()}
        with pytest.raises(ValueError, match=f"p must exceed 1, got {p}"):
            x0_norm_estimate(replace(f, y=y, p=p), u, 4)
        with pytest.raises(ValueError, match="q must be finite"):
            x0_norm_estimate(replace(f, y=y, p=p, q=math.inf), u, 4)


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

    def test_chain_tolerance_is_relative_only(self, monkeypatch):
        # the r-th mean equals ||z||^q up to _CHAIN_RTOL relative, with no
        # absolute slack: weights 2e-9 too large fail it, in the library and
        # in the oracle, though the chain's values are near 1. A
        # factorization built from dicts keeps no measure, so
        # `x0_norm_estimate` takes the one `pisier.weights_tl` gives
        p, q = 1.5, 3.0
        for seed in range(4):
            u = random_scalar(np.random.default_rng([22, seed]), 6)
            m = pietsch.weights_tl(u, p, q)
            built = pisier._factorize(u, p, q, theta(p, q), m)
            f = Factorization(x=built.x, y=built.y, theta=built.theta, p=p, q=q)
            off = replace(m, weights={k: w * (1 + 2e-9) for k, w in m.weights.items()})
            monkeypatch.setattr(pisier, "weights_tl", lambda *args: m)
            assert x0_norm_estimate(f, u, 4, seed) > 0.0
            monkeypatch.setattr(pisier, "weights_tl", lambda *args: off)
            with pytest.raises(VerificationError, match="r-th weighted mean"):
                x0_norm_estimate(f, u, 4, seed)
            with pytest.raises(VerificationError, match="r-th weighted mean"):
                pisier_oracle.x0_norm_estimate(f, u, 4, seed, off)

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

    def test_factorization_of_other_support_rejected(self):
        f = factorize(scalar(1, {(0, 0): 1.0, (1, 0): 0.5}), 1.5, 3.0)
        u = scalar(1, {(0, 0): 1.0, (1, 1): 0.5})
        with pytest.raises(ValueError, match="factorization does not match"):
            x0_norm_estimate(f, u, 4)

    def test_an_overflowing_mean_fails_its_check_and_warns_of_nothing(self):
        # at q = 102.5 a candidate ratio's power overflows to inf: the r-th
        # mean test fails, and no RuntimeWarning, which the test settings
        # raise, comes before it
        u = gen_random(8, 1, 0.5, 0)
        message = re.escape("r-th weighted mean should equal ||z||^q exactly")
        with pytest.raises(VerificationError, match=message):
            x0_norm_estimate(factorize(u, 1.5, 102.5), u, 40, 1)

    def test_overflowing_sample_norms_fail_closed(self):
        # raw magnitudes reach 10^3, so raw**q overflows at q = 150; the
        # scales became inf and every sampled candidate the zero vector
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.75, (1, 1): -1.25, (2, 1): 0.5, (2, 2): 1.5})
        f = factorize(u, 1.5, 150.0)
        with pytest.raises(OverflowError, match="float range"):
            x0_norm_estimate(f, u, 4)
        assert x0_norm_estimate(f, u, 0) > 0.0

    def test_negative_sample_count_rejected(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        f = factorize(u, 1.5, 3.0)
        with pytest.raises(ValueError, match="n_samples"):
            x0_norm_estimate(f, u, -1)

    def test_float_sample_count_raises_before_drawing(self, monkeypatch):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        f = factorize(u, 1.5, 3.0)

        class NoDraws:
            def uniform(self, *args, **kwargs):
                raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(TypeError):
            x0_norm_estimate(f, u, 2.5)

    def test_later_overflow_outranks_earlier_chain_failure(self, monkeypatch):
        # one candidate per block: at q = 104 seed 0's samples 1 to 5 fail the
        # r-th mean test (theta is off), and sample 6's q-norm overflows
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.75, (1, 1): -1.25, (2, 1): 0.5, (2, 2): 1.5})
        f = factorize(u, 1.5, 104.0)
        g = Factorization(x=f.x, y=f.y, theta=f.theta * 0.9, p=f.p, q=f.q)
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", 1)
        assert haar._batch_rows(haar._support_grid(u)) == 1
        with pytest.raises(VerificationError, match="r-th weighted mean"):
            x0_norm_estimate(g, u, 5)
        with pytest.raises(OverflowError, match="float range"):
            x0_norm_estimate(g, u, 6)
        assert x0_norm_estimate(f, u, 5) > 0.0

    def test_nan_in_a_later_block_propagates(self, monkeypatch):
        # a NaN peak in any exact block makes the estimate NaN, as the max
        # over one array of every candidate does; Python's max would drop it
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.75, (1, 1): -1.25, (2, 1): 0.5, (2, 2): 1.5})
        f = factorize(u, 1.5, 3.0)
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", 1)
        events = _record(monkeypatch)
        exact = pisier._Chain.exact

        def nan_in_third_block(chain, exponents, with_y):
            flags, peak = exact(chain, exponents, with_y)
            return flags, (math.nan if len(events) == 3 else peak)

        monkeypatch.setattr(pisier._Chain, "exact", nan_in_third_block)
        assert math.isnan(x0_norm_estimate(f, u, 4))
        assert events == [("exact", 1, True)] + [("exact", 1, False)] * 4

    def test_a_nan_in_x_y_or_w_leaves_the_call_uncertified(self, monkeypatch):
        # a NaN in x, y or w, at the first or the last support row, leaves
        # the call uncertified; through `x0_norm_estimate` only one in x gets
        # past the y check, and then every block runs exactly
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.75, (1, 1): -1.25, (2, 1): 0.5, (2, 2): 1.5})
        f = factorize(u, 1.5, 3.0)
        rows = [f._field_rows(name, u) for name in ("x", "y")]
        rows.append(pietsch.weights_tl(u, 1.5, 3.0)._field_rows("weights", u))
        exponents = (f.p, f.q, f.theta, f.p * (f.q - 1.0) / (f.p - 1.0))
        grid = haar._support_grid(u)
        assert pisier._Chain(grid, u, *rows, exponents).certified
        for k in range(3):
            for at in (0, -1):
                bad = [row.copy() for row in rows]
                bad[k][at] = math.nan
                assert not pisier._Chain(grid, u, *bad, exponents).certified
        g = Factorization(x={**f.x, u.support[0]: math.nan}, y=f.y, theta=f.theta, p=1.5, q=3.0)
        assert math.isnan(x0_norm_estimate(g, u, 4))
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", 1)
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        events = _record(monkeypatch)
        assert math.isnan(x0_norm_estimate(g, u, 4))
        assert events == [("exact", 1, True), ("certified", False)] + [("exact", 1, False)] * 4

    def test_a_nan_in_the_cell_sums_runs_the_block_exactly(self, monkeypatch):
        # at seed 1 the L^q bounds of the first three sampled blocks here
        # meet y's peak, and their cell-sum bounds settle them: a NaN in
        # those of the second block sends that block to the exact run, whose
        # peak is finite, and the others stay settled
        u = scalar(2, {(1, 1): 0.5, (2, 2): 2.0})
        f = factorize(u, 1.5, 3.0)
        want = x0_norm_estimate(f, u, 4, 1)
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", 1)
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        events = _record(monkeypatch)
        assert x0_norm_estimate(f, u, 4, 1) == want
        settled = [("reach", 1, False), ("cells", 1)]
        start, last = [("exact", 1, True), ("certified", True)], [("reach", 1, False)]
        assert events == start + settled * 3 + last
        calls = []
        cells = pisier._cells

        def nan_in_third_call(grid, values):
            calls.append(None)
            sums, lengths = cells(grid, values)
            return (np.full_like(sums, math.nan) if len(calls) == 3 else sums), lengths

        monkeypatch.setattr(pisier, "_cells", nan_in_third_call)
        events = _record(monkeypatch)
        assert x0_norm_estimate(f, u, 4, 1) == want
        ran = [("reach", 1, True), ("cells", 1), ("exact", 1, False)]
        assert events == start + settled + ran + settled + last

    def test_memory_independent_of_samples(self):
        # candidates run in blocks of `haar._BATCH_ENTRIES` cell entries: at
        # max level 12 (about 4k support) 4000 candidates in one array would
        # need about 0.7 GB
        u = gen_random(12, 1, 0.5, 3)
        f = factorize(u, 1.5, 3.0)
        tracemalloc.start()
        try:
            x0_norm_estimate(f, u, 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

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

    def test_memory_independent_of_leaves_on_atoms(self):
        # 50 intervals at max level 40: the whole Hardy route runs on the
        # atoms, so nothing holds one entry per leaf (2^40 of them)
        rng = np.random.default_rng(40)
        coeffs = {}
        while len(coeffs) < 50:
            level = int(rng.integers(0, 41))
            coeffs[iv(level, int(rng.integers(0, 1 << level)))] = float(
                rng.standard_normal()
            )
        u = HaarExpansion.scalar(40, coeffs)
        phis = [
            dict(zip(u.support, rng.uniform(-1.0, 1.0, len(u.support)).tolist()))
            for _ in range(8)
        ]
        tracemalloc.start()
        try:
            dec = decompose(u, 1.0)
            report = verify_decomposition(u, 1.0, dec)
            m = weights_hp(u, 1.0)
            checks = [check_multiplier_bound(u, 1.0, phi, m) for phi in phis]
            norm = tl_norm(u, 1.5, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and all(check.ok for check in checks) and norm > 0
        assert peak < 8 << 20


class TestSupportOrderKeys:
    """The key checks and reads of `verify_factorization` and
    `x0_norm_estimate` give the same answers for factors in support order,
    in another order, and keyed by equal but distinct intervals, and on the
    by-key path."""

    def _variants(self, f):
        """f; its factors reversed; and keyed by rebuilt intervals."""
        for rekey in (
            lambda factor: factor,
            lambda factor: dict(reversed(factor.items())),
            lambda factor: {iv(*k): v for k, v in factor.items()},
        ):
            yield Factorization(x=rekey(f.x), y=rekey(f.y), theta=f.theta, p=f.p, q=f.q)

    def _answers(self, u, f):
        return [
            (verify_factorization(u, g), x0_norm_estimate(g, u, 8, seed=1))
            for g in self._variants(f)
        ]

    def test_orders_and_paths_agree(self, monkeypatch):
        rng = np.random.default_rng(77)
        for _ in range(6):
            u = random_scalar(rng, int(rng.integers(1, 7)))
            f = factorize(u, 1.5, 3.0)
            answers = self._answers(u, f)
            assert answers == [answers[0]] * 3 and answers[0][0]
            monkeypatch.setattr(haar, "_support_order", lambda mapping, u: False)
            assert self._answers(u, f) == answers
            monkeypatch.undo()

    def test_missing_or_foreign_keys_rejected(self):
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.5, (2, 3): -0.75})
        f = factorize(u, 1.5, 3.0)
        first = iv(0, 0)
        for x, y in (
            ({k: v for k, v in f.x.items() if k != first}, f.y),
            (f.x, {**f.y, iv(2, 0): 0.5}),
            ({**f.x, iv(2, 0): 0.5}, {k: v for k, v in f.y.items() if k != first}),
        ):
            bad = Factorization(x=x, y=y, theta=f.theta, p=f.p, q=f.q)
            assert not verify_factorization(u, bad)
            with pytest.raises(ValueError, match="factorization does not match"):
                x0_norm_estimate(bad, u, 2)


def _outcome(fn, *args):
    """A call's result, or its exception's type and message, as a repr:
    repr tells floats apart bit for bit where == does not."""
    try:
        return repr(fn(*args))
    except (ValueError, ArithmeticError, VerificationError) as exc:
        return repr((type(exc), str(exc)))


def _record(monkeypatch):
    """The blocks `x0_norm_estimate` runs from now on, in order:
    ("certified", the flag) when a call first reads it, ("reach", sampled
    rows, whether the block runs exactly), ("cells", rows) after it when
    the reach takes its cell-sum step, and ("exact", rows, whether y is
    one)."""
    events, inside = [], []
    certified, reach, exact, cells = (
        pisier._Chain.certified, pisier._Chain.reach, pisier._Chain.exact, pisier._cells
    )

    def certify(chain):
        if "certified" not in vars(chain):
            events.append(("certified", certified.__get__(chain)))
        return vars(chain)["certified"]

    def reached(chain, exponents, top):
        at = len(events)
        inside.append(None)
        bound = reach(chain, exponents, top)
        inside.pop()
        events.insert(at, ("reach", len(exponents), not bound < top))
        return bound

    def summed(grid, values):
        if inside:
            events.append(("cells", len(values)))
        return cells(grid, values)

    def exactly(chain, exponents, with_y):
        events.append(("exact", (0 if exponents is None else len(exponents)) + with_y, with_y))
        return exact(chain, exponents, with_y)

    monkeypatch.setattr(pisier._Chain, "certified", property(certify))
    monkeypatch.setattr(pisier._Chain, "reach", reached)
    monkeypatch.setattr(pisier._Chain, "exact", exactly)
    monkeypatch.setattr(pisier, "_cells", summed)
    return events


def _sparse_scalar(rng, max_level, draws):
    coeffs = {}
    for _ in range(draws):
        level = int(rng.integers(0, max_level + 1))
        coeffs[iv(level, int(rng.integers(0, 1 << level)))] = float(rng.standard_normal())
    return HaarExpansion.scalar(max_level, coeffs)


class TestArrayFormOracle:
    """`factorize`, `verify_factorization` and `x0_norm_estimate` on
    support-row arrays against the per-interval loops they replaced
    (`pisier_oracle`): equal factors, verdicts, values and exceptions."""

    PQS = ((4.0 / 3.0, 2.0), (1.5, 3.0), (2.0, 4.0), (1.25, 7.5))

    def _pool(self):
        """Dense expansions on the leaf grid, sparse deep ones on the atom
        grid, and both scaled by powers of two."""
        rng = np.random.default_rng(1414)
        for k in range(12):
            u = (
                random_scalar(rng, int(rng.integers(0, 7)))
                if k % 2
                else _sparse_scalar(rng, 30, 40)
            )
            scale = 2.0 ** int(rng.integers(-60, 61))
            yield u
            yield HaarExpansion.scalar(u.max_level, {i: v * scale for i, (v,) in u.coeffs.items()})

    def _cases(self):
        for k, u in enumerate(self._pool()):
            p, q = self.PQS[k % len(self.PQS)]
            yield u, p, q, theta(p, q), pietsch.weights_tl(u, p, q)

    def _tampered(self, f, u):
        """f; reversed; a foreign key; a missing key; x and y perturbed by
        +-1e-10 and +-2e-10 relative; and a NaN, an inf and a zero in each
        factor, at the first and the last support row."""
        def factor(x, y):
            return Factorization(x=x, y=y, theta=f.theta, p=f.p, q=f.q)

        first, last = u.support[0], u.support[-1]
        yield f
        yield factor(dict(reversed(f.x.items())), dict(reversed(f.y.items())))
        yield factor({**f.x, iv(u.max_level + 1, 0): 1.0}, f.y)
        yield factor(f.x, {k: v for k, v in f.y.items() if k != last})
        for rel in (1e-10, -1e-10, 2e-10, -2e-10, 5e-11):
            for at in (first, last):
                yield factor({**f.x, at: f.x[at] * (1.0 + rel)}, f.y)
                yield factor(f.x, {**f.y, at: f.y[at] * (1.0 + rel)})
        for bad in (math.nan, math.inf, 0.0):
            for at in (first, last):
                yield factor({**f.x, at: bad}, f.y)
                yield factor(f.x, {**f.y, at: bad})

    def test_factors_match(self):
        for u, p, q, th, m in self._cases():
            got = pisier._factorize(u, p, q, th, m)
            want = pisier_oracle.factorize(u, p, q, th, m)
            assert repr(list(got.x.items())) == repr(list(want.x.items()))
            assert repr(list(got.y.items())) == repr(list(want.y.items()))
            assert got == want

    def test_verdicts_match(self):
        verdicts = []
        for u, p, q, th, m in self._cases():
            f = pisier._factorize(u, p, q, th, m)
            for g in self._tampered(f, u):
                got = _outcome(verify_factorization, u, g)
                assert got == _outcome(pisier_oracle.verify_factorization, u, g)
                verdicts.append(got)
        # the perturbations straddle the tolerance: some pass, some fail
        assert "True" in verdicts and "False" in verdicts

    def test_theta_outside_unit_interval_fails_closed(self):
        # a zero y to a negative power, or a huge x or y past the float
        # range, is a failed identity: False, where the per-row oracle
        # raises when that row comes before the first mismatch
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.5, (2, 3): -0.75})
        f = factorize(u, 1.5, 3.0)
        first = u.support[0]
        raised = 0
        for th in (-0.5, 0.0, 1.0, 1.5, 40.0, -40.0):
            for x, y in (
                (f.x, f.y),
                (f.x, {**f.y, first: 0.0}),
                ({**f.x, first: 1e300}, f.y),
                (f.x, {**f.y, first: 1e300}),
            ):
                g = Factorization(x=x, y=y, theta=th, p=f.p, q=f.q)
                got = verify_factorization(u, g)
                try:
                    assert got == pisier_oracle.verify_factorization(u, g) is False
                except ArithmeticError:
                    raised += 1
                    assert got is False
        assert raised

    def test_estimates_match(self):
        def oracle(g, u, n_samples, seed, m):
            if not pisier_oracle._matches(g, u):
                raise ValueError("factorization does not match the expansion")
            return pisier_oracle.x0_norm_estimate(g, u, n_samples, seed, m)

        outcomes = []
        for k, (u, p, q, th, m) in enumerate(self._cases()):
            f = pisier._factorize(u, p, q, th, m)
            for g in self._tampered(f, u) if k < 8 else (f,):
                got = _outcome(x0_norm_estimate, g, u, 8, k)
                assert got == _outcome(oracle, g, u, 8, k, m)
                outcomes.append(got)
        assert any("ValueError" in o for o in outcomes)
        assert any("VerificationError" in o for o in outcomes)
        assert any(not o.startswith("(") for o in outcomes)

    def test_one_row_blocks_change_nothing(self, monkeypatch):
        # every candidate in its own block against all in one block, each
        # run exactly and bounded: the same values, verdicts and exceptions,
        # NaN, inf and zero included; some calls are certified and bound
        # their blocks, and others are not
        def outcomes(budget, screen_from):
            monkeypatch.setattr(haar, "_BATCH_ENTRIES", budget)
            monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", screen_from)
            events = _record(monkeypatch)
            got = [
                _outcome(x0_norm_estimate, g, u, 8, k)
                for k, (u, p, q, th, m) in enumerate(self._cases())
                for g in self._tampered(pisier._factorize(u, p, q, th, m), u)
            ]
            monkeypatch.undo()
            return got, events

        exactly = 1 << 40
        whole, whole_blocks = outcomes(1 << 40, exactly)
        rows, row_blocks = outcomes(1, exactly)
        assert rows == whole
        assert {rows for _, rows, _ in whole_blocks} == {9}
        assert {rows for _, rows, _ in row_blocks} == {1}
        assert len(row_blocks) == 9 * len(whole_blocks)
        for budget in (1 << 40, 1):
            bounded, blocks = outcomes(budget, 0)
            assert bounded == whole
            assert ("certified", True) in blocks and ("certified", False) in blocks
            assert any(event[:2] == ("reach", 8 if budget > 1 else 1) for event in blocks)


class TestScreenAgainstOracle:
    """`x0_norm_estimate` against `pisier_oracle`, which runs every
    candidate exactly, on inputs that reach each way a block runs: bounded
    and settled, bounded and run exactly, and exact from the start, as the
    call is uncertified."""

    PQS = ((1.5, 3.0), (4.0 / 3.0, 2.0), (1.25, 7.5))

    def _same(self, f, u, n_samples, seed, m):
        got = _outcome(x0_norm_estimate, f, u, n_samples, seed)
        assert got == _outcome(pisier_oracle.x0_norm_estimate, f, u, n_samples, seed, m)
        return got

    def test_screened_blocks(self, monkeypatch):
        events = _record(monkeypatch)
        for k, (p, q) in enumerate(self.PQS):
            u = gen_random(10, 1, 0.5, k)
            got = self._same(factorize(u, p, q), u, 40, k, pietsch.weights_tl(u, p, q))
            assert not got.startswith("(")
        assert ("reach", 31, False) in events and ("exact", 1, True) in events
        assert [event for event in events if event[0] == "certified"] == [("certified", True)] * 3

    @pytest.mark.parametrize("off", [0.95e-9, 1.05e-9])
    def test_exact_fallback_at_the_chain_threshold(self, monkeypatch, off):
        # weights off by 0.95e-9 pass the r-th mean test and by 1.05e-9 fail
        # it; both leave the call uncertified, so every block runs exactly. A
        # factorization built from dicts keeps no measure, so the library
        # takes `weights_tl`'s
        p, q = 1.5, 3.0
        u = gen_random(10, 1, 0.5, 3)
        m = pietsch.weights_tl(u, p, q)
        built = pisier._factorize(u, p, q, theta(p, q), m)
        f = Factorization(x=built.x, y=built.y, theta=built.theta, p=p, q=q)
        tilted = replace(m, weights={k: w * (1 + off) for k, w in m.weights.items()})
        monkeypatch.setattr(pisier, "weights_tl", lambda *args: tilted)
        events = _record(monkeypatch)
        got = self._same(f, u, 40, 5, tilted)
        assert ("r-th weighted mean" in got) == (off > 1e-9)
        step = haar._batch_rows(haar._support_grid(u))
        assert events[:2] == [("certified", False), ("exact", step, True)]
        assert not any(event[0] == "reach" for event in events)

    @pytest.mark.parametrize("budget", [1 << 16, 2, 1])
    def test_contenders_run_exactly(self, monkeypatch, budget):
        # one support row: every sample ties y, so every bounded block could
        # hold the maximum and runs exactly; the two rows here tie y closely
        # enough too. Blocks of 1, 2 and 12 rows
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", budget)
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        events = _record(monkeypatch)
        contended = []
        for u in (
            scalar(0, {(0, 0): 1.0}),
            scalar(3, {(3, 5): -2.5}),
            scalar(1, {(0, 0): -1.0, (1, 1): 0.5}),
            scalar(2, {(1, 1): 0.5, (2, 2): 2.0}),
        ):
            for p, q in ((1.5, 3.0), (1.9, 2.5)):
                events.clear()
                got = self._same(factorize(u, p, q), u, 11, 1, pietsch.weights_tl(u, p, q))
                assert not got.startswith("(")
                confirmed = [e[1] for e in events if e[0] == "exact" and not e[2]]
                reached = [e[1] for e in events if e[0] == "reach"]
                if len(u.support) == 1:
                    assert confirmed == reached
                contended.append(bool(confirmed))
        assert all(contended[:4]) and any(contended[4:])

    @pytest.mark.parametrize("budget", [1 << 16, 1 << 11])
    def test_a_winning_sample(self, monkeypatch, budget):
        # at (p, q) = (3, 3.1), theta near 0.97, a sampled candidate beats y
        # on these 55 support rows; in blocks of 458 rows and of 14, run
        # exactly and bounded, the oracle takes the q-norms in the same
        # blocks as the library, and the winning block runs exactly
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", budget)
        u = _sparse_scalar(np.random.default_rng(8), 20, 60)
        p, q = 3.0, 3.1
        f, m = factorize(u, p, q), pietsch.weights_tl(u, p, q)
        assert len(u.support) == 55
        got = self._same(f, u, 64, 0, m)
        assert float(got) > x0_norm_estimate(f, u, 0)
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        events = _record(monkeypatch)
        assert self._same(f, u, 64, 0, m) == got
        assert ("certified", True) in events and ("exact", 1, True) in events
        assert any(event[0] == "reach" and event[2] for event in events)

    def test_sampled_overflow_edge(self, monkeypatch):
        # raw magnitudes reach 10^3, so the sampled q-th powers overflow
        # from q near 102.8: these calls are uncertified and run exactly
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        u = gen_random(6, 1, 0.6, 0)
        events = _record(monkeypatch)
        got = [
            self._same(factorize(u, 1.5, q), u, 64, 0, pietsch.weights_tl(u, 1.5, q))
            for q in (102.5, 102.75, 103.0)
        ]
        assert "OverflowError" in got[-1] and not got[0].startswith("(")
        assert events.count(("certified", False)) == 3
        assert not any(event[0] == "reach" for event in events)

    def test_scaled_inputs_and_bad_factors(self, monkeypatch):
        # u scaled by 2^500 and 2^-500, and a NaN, an inf and a zero in
        # each factor: every such call is uncertified and runs exactly
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        base = gen_random(5, 1, 0.6, 2)
        outcomes = []
        for scale in (2.0**500, 2.0**-500, 1.0):
            u = HaarExpansion.scalar(5, {i: v * scale for i, (v,) in base.coeffs.items()})
            p, q = 1.1, 2.0  # theta near 0.2 keeps x and |u|^(q/2) in the float range
            m = pietsch.weights_tl(u, p, q)
            f = factorize(u, p, q)
            events = _record(monkeypatch)
            outcomes.append(self._same(f, u, 16, 3, m))
            assert (("certified", True) in events) == (scale == 1)
            assert any(event[0] == "reach" for event in events) == (scale == 1)
            events.clear()
            first = u.support[0]
            for bad in (math.nan, math.inf, 0.0):
                for x, y in (({**f.x, first: bad}, f.y), (f.x, {**f.y, first: bad})):
                    g = Factorization(x=x, y=y, theta=f.theta, p=p, q=q)
                    outcomes.append(self._same(g, u, 16, 3, m))
            assert ("certified", True) not in events
            monkeypatch.undo()
            monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        assert any(o.startswith("(") for o in outcomes)
        assert any(not o.startswith("(") for o in outcomes)


class TestReachesBoundThePeaks:
    """Both bounds `_Chain.reach` gives on a block of a certified call, the
    L^q one (against a `top` of inf) and the cell-sum one (against -inf),
    lie at or above the largest peak `_Chain.exact` gives on the same
    block, and the L^q step changes no exact run."""

    def _ratios(self, monkeypatch, u, p, q):
        """(largest exact peak / L^q reach, that peak / cell-sum reach) per
        sampled block of `x0_norm_estimate` with 40 samples, every block
        bounded when the call is certified."""
        monkeypatch.setattr(haar, "_BATCH_ENTRIES", 1 << 13)
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        ratios = []
        reach = pisier._Chain.reach

        def checked(chain, exponents, top):
            _, peak = chain.exact(exponents, False)
            bounds = reach(chain, exponents, math.inf), reach(chain, exponents, -math.inf)
            ratios.append((peak / bounds[0], peak / bounds[1]))
            return reach(chain, exponents, top)

        monkeypatch.setattr(pisier._Chain, "reach", checked)
        x0_norm_estimate(factorize(u, p, q), u, 40, 1)
        monkeypatch.undo()
        return ratios

    @pytest.mark.parametrize("grid", ["leaves", "atoms"])
    def test_both_reaches_bound_the_exact_peak(self, monkeypatch, grid):
        base = (
            gen_random(8, 1, 0.5, 0)
            if grid == "leaves"
            else _sparse_scalar(np.random.default_rng(7), 30, 60)
        )
        assert haar._on_atoms(len(base.support), base.max_level) == (grid == "atoms")
        pqs = TestScreenAgainstOracle.PQS + ((1.5, 1.55), (1.5, 10.0))
        ratios = []
        for scale in (1.0, 2.0**20, 2.0**-20):
            u = HaarExpansion.scalar(
                base.max_level, {i: v * scale for i, (v,) in base.coeffs.items()}
            )
            for p, q in pqs:
                got = self._ratios(monkeypatch, u, p, q)
                assert got
                ratios += got
        assert all(0.0 < lq <= 1.0 and 1.0 - 1e-6 < cells <= 1.0 for lq, cells in ratios)
        # past the certificate's log range no call is certified, so no block
        # is bounded:
        # q = 102.5 (on the leaves, at an input whose exact run warns of no
        # overflow), and u scaled by 2^500 and 2^-500
        edge = gen_random(6, 1, 0.6, 0) if grid == "leaves" else base
        assert self._ratios(monkeypatch, edge, 1.5, 102.5) == []
        for scale in (2.0**500, 2.0**-500):
            u = HaarExpansion.scalar(
                base.max_level, {i: v * scale for i, (v,) in base.coeffs.items()}
            )
            assert self._ratios(monkeypatch, u, 4.0 / 3.0, 2.0) == []

    def test_the_lq_step_changes_no_exact_run(self, monkeypatch):
        # the pool of ROADMAP item 15, 256 samples per call: the exact runs
        # are the same blocks, in the same order, as when every bounded block
        # takes its cell-sum reach (against a `top` of -inf)
        def exact_runs(lq_settles):
            if not lq_settles:
                reach = pisier._Chain.reach
                monkeypatch.setattr(
                    pisier._Chain, "reach", lambda chain, e, top: reach(chain, e, -math.inf)
                )
            events = _record(monkeypatch)
            values = []
            for level in (4, 6, 8):
                for s in range(8):
                    u = gen_random(level, 1, 0.5, 1000 + s)
                    for p, q in ((1.5, 3.0), (1.2, 4.0), (1.9, 2.5)):
                        values.append(repr(x0_norm_estimate(factorize(u, p, q), u, 256, s)))
            monkeypatch.undo()
            return values, events

        values, events = exact_runs(True)
        want_values, want_events = exact_runs(False)
        exact = [event for event in events if event[0] == "exact"]
        assert values == want_values
        assert exact == [event for event in want_events if event[0] == "exact"]
        assert (len(exact), sum(rows for _, rows, _ in exact)) == (90, 6342)
        # the L^q step settles 63 of the 72 bounded blocks with no cell sums
        assert sum(event[0] == "cells" for event in events) == 9
        assert sum(event[0] == "cells" for event in want_events) == 72


class TestCertificate:
    """Whenever a call is certified (`_Chain.certified`), the exact run of
    every sampled block fails no check and raises nothing, and both bounds
    of `_Chain.reach` lie at or above that block's exact peak, on the
    leaves and on the atoms: over the pools of `TestArrayFormOracle` and
    `TestScreenAgainstOracle`, their tampered factors and scalings by
    2^+-k, with every block bounded. Weights tilted by 0.95e-9 or 1.05e-9
    and a y perturbed by +-2e-10 leave the call uncertified."""

    def _runner(self, monkeypatch):
        """(run, problems, on_atoms): run(f, u, n_samples, seed) makes the
        call and gives its certified flag, None when it read none; each
        bounded block appends to `problems` what its exact run raised, or
        its failed checks, exact peak and two bounds when a check failed or
        a bound lies below that peak, and to `on_atoms` whether its grid is
        the atoms'."""
        monkeypatch.setattr(pisier, "_SCREEN_MIN_ENTRIES", 0)
        problems, on_atoms = [], []
        reach = pisier._Chain.reach

        def sound(chain, exponents, top):
            on_atoms.append(chain.grid.lengths is not None)
            try:
                flags, peak = chain.exact(exponents, False)
            except (ArithmeticError, RuntimeWarning) as exc:
                problems.append(repr(exc))
                return math.inf
            bounds = reach(chain, exponents, math.inf), reach(chain, exponents, -math.inf)
            if any(flags) or not min(bounds) >= peak:
                problems.append((flags, peak, bounds))
            return reach(chain, exponents, top)

        monkeypatch.setattr(pisier._Chain, "reach", sound)
        events = _record(monkeypatch)

        def run(f, u, n_samples, seed):
            events.clear()
            _outcome(x0_norm_estimate, f, u, n_samples, seed)
            flags = [event[1] for event in events if event[0] == "certified"]
            return flags[0] if flags else None

        return run, problems, on_atoms

    @staticmethod
    def _y_off(f, u, rel):
        """f with y perturbed by `rel` relative at the first and at the
        last support row, one factorization each."""
        for at in (u.support[0], u.support[-1]):
            yield Factorization(x=f.x, y={**f.y, at: f.y[at] * (1.0 + rel)}, theta=f.theta,
                                p=f.p, q=f.q)

    def test_array_form_pool(self, monkeypatch):
        run, problems, on_atoms = self._runner(monkeypatch)
        pool = TestArrayFormOracle()
        flags = []
        for k, (u, p, q, th, m) in enumerate(pool._cases()):
            for scale in (1.0, 2.0**40, 2.0**-40):
                v = HaarExpansion.scalar(u.max_level, {i: x * scale for i, (x,) in u.coeffs.items()})
                try:
                    f = pisier._factorize(v, p, q, th, pietsch.weights_tl(v, p, q))
                except ArithmeticError:
                    continue
                flags += [run(g, v, 8, k) for g in pool._tampered(f, v)]
                for rel in (2e-10, -2e-10):
                    assert [run(g, v, 8, k) for g in self._y_off(f, v, rel)] == [False] * 2
        assert problems == []
        assert True in flags and False in flags and set(on_atoms) == {False, True}

    def test_screen_against_oracle_pool(self, monkeypatch):
        run, problems, on_atoms = self._runner(monkeypatch)
        flags = []
        for k, (p, q) in enumerate(TestScreenAgainstOracle.PQS):
            for scale in (1.0, 2.0**20, 2.0**-20, 2.0**500, 2.0**-500):
                base = gen_random(10, 1, 0.5, k)
                u = HaarExpansion.scalar(10, {i: x * scale for i, (x,) in base.coeffs.items()})
                try:
                    f = factorize(u, p, q)
                except ArithmeticError:
                    continue
                flags.append(run(f, u, 40, k))
                for rel in (2e-10, -2e-10):
                    assert [run(g, u, 40, k) for g in self._y_off(f, u, rel)] == [False] * 2
        for u in (
            scalar(0, {(0, 0): 1.0}),
            scalar(3, {(3, 5): -2.5}),
            scalar(1, {(0, 0): -1.0, (1, 1): 0.5}),
            scalar(2, {(1, 1): 0.5, (2, 2): 2.0}),
            _sparse_scalar(np.random.default_rng(7), 30, 60),
        ):
            for p, q in ((1.5, 3.0), (1.9, 2.5), (1.5, 102.5), (1.5, 103.0)):
                flags.append(run(factorize(u, p, q), u, 11, 1))
        assert problems == []
        assert True in flags and False in flags and set(on_atoms) == {False, True}
        # tilted weights: a factorization built from dicts takes `weights_tl`'s
        p, q = 1.5, 3.0
        u = gen_random(10, 1, 0.5, 3)
        m = pietsch.weights_tl(u, p, q)
        built = pisier._factorize(u, p, q, theta(p, q), m)
        f = Factorization(x=built.x, y=built.y, theta=built.theta, p=p, q=q)
        for off in (0.95e-9, 1.05e-9):
            tilted = replace(m, weights={k: w * (1 + off) for k, w in m.weights.items()})
            monkeypatch.setattr(pisier, "weights_tl", lambda *args: tilted)
            assert run(f, u, 40, 5) is False


class TestIsClose:
    def test_matches_math_isclose(self):
        values = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-10, 1.0 + 2e-10, 1.0 - 1e-10, 1e-300,
                  2e-300, 5e-324, 1e-310, 1e300, -1e300, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan]
        a, b = (np.array(pair) for pair in zip(*itertools.product(values, repeat=2)))
        for rel_tol, abs_tol in ((1e-10, 0.0), (1e-9, 1e-300), (0.5, 0.0), (0.0, 1e-300)):
            want = [
                math.isclose(x, y, rel_tol=rel_tol, abs_tol=abs_tol)
                for x, y in zip(a.tolist(), b.tolist())
            ]
            assert pisier._isclose(a, b, rel_tol, abs_tol).tolist() == want


class TestNoKeyHashed:
    """Factors and measures in support order are read as arrays: `pisier`
    never reaches `HaarExpansion.coeffs` or the by-key read for them."""

    def test_support_order_never_reads_by_key(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("by-key path called")

        rng = np.random.default_rng(1515)
        cases = []
        for u in (random_scalar(rng, 6), _sparse_scalar(rng, 30, 40)):
            th, m = theta(1.5, 3.0), pietsch.weights_tl(u, 1.5, 3.0)
            f = factorize(u, 1.5, 3.0)
            cases.append((u, th, m, f, verify_factorization(u, f), x0_norm_estimate(f, u, 8)))
        monkeypatch.setattr(haar, "_rows_by_key", refuse)
        monkeypatch.setattr(HaarExpansion, "coeffs", property(refuse))
        for u, th, m, f, verdict, estimate in cases:
            assert haar._support_order(m.weights, u)
            assert pisier._factorize(u, 1.5, 3.0, th, m) == f
            assert factorize(u, 1.5, 3.0) == f
            assert verify_factorization(u, f) is verdict is True
            assert x0_norm_estimate(f, u, 8) == estimate
            # built from dicts, f keeps no measure: the estimate takes a
            # fresh `weights_tl`, still with no by-key read
            from_dicts = Factorization(x=f.x, y=f.y, theta=f.theta, p=f.p, q=f.q)
            assert x0_norm_estimate(from_dicts, u, 8) == estimate
            reversed_f = Factorization(
                x=dict(reversed(f.x.items())), y=f.y, theta=f.theta, p=f.p, q=f.q
            )
            with pytest.raises(AssertionError, match="by-key path"):
                verify_factorization(u, reversed_f)


def _kept(f):
    """Whether f still keeps both factors as support-order arrays and has
    built neither dict."""
    return not {"x", "y"} & vars(f).keys() and all(f._kept(name) is not None for name in "xy")


class TestFactorStorage:
    """`factorize` keeps its factors in support order and builds the `x` and
    `y` dicts on first read; from then on each dict is its factor.
    Factorizations built from dicts, `replace`, `==`, `repr`, pickling and
    copies behave as for a dict-valued dataclass."""

    def _cases(self):
        rng = np.random.default_rng(5151)
        return [
            (random_scalar(rng, 6), 1.5, 3.0),
            (_sparse_scalar(rng, 30, 40), 1.25, 4.0),
        ]

    def _plain(self, f):
        return Factorization(x=dict(f.x), y=dict(f.y), theta=f.theta, p=f.p, q=f.q)

    def test_checks_read_the_rows_and_build_no_dict(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dict read")

        for u, p, q in self._cases():
            plain = self._plain(factorize(u, p, q))
            want = (verify_factorization(u, plain), x0_norm_estimate(plain, u, 8, seed=2))
            f = factorize(u, p, q)
            assert _kept(f)
            assert isinstance(f._kept("x"), np.ndarray) and not f._kept("y").flags.writeable
            monkeypatch.setattr(haar, "_support_rows", refuse)
            got = (verify_factorization(u, f), x0_norm_estimate(f, u, 8, seed=2))
            monkeypatch.undo()
            assert got == want and got[0] is True
            assert _kept(f)
            assert f == plain and not _kept(f)

    def test_dataclass_surface(self):
        for u, p, q in self._cases():
            f = factorize(u, p, q)
            plain = self._plain(factorize(u, p, q))
            for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
                assert _kept(g) and g == plain
            assert _kept(f)
            assert repr(factorize(u, p, q)) == repr(plain)
            assert f == plain and plain == factorize(u, p, q) and f != replace(plain, p=2.0)
            for g in (factorize(u, p, q), plain):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(g)
                moved = replace(g, q=q + 1.0)
                assert moved.x is g.x and moved.y is g.y and moved.q == q + 1.0
                for shared in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
                    assert shared == g and not _kept(shared)

    def test_copies_read_only_and_without_source(self, monkeypatch):
        # a deep copy or a pickle round trip keeps the factors read-only and
        # drops u and its measure: no identity survives either, so its
        # estimate recomputes the measure, bit for bit; a `copy.copy`
        # shares them
        for u, p, q in self._cases():
            f = factorize(u, p, q)
            want = repr(x0_norm_estimate(f, u, 8, seed=3))
            calls = []
            weights_tl_core = pisier.weights_tl
            monkeypatch.setattr(
                pisier, "weights_tl", lambda *a: calls.append(a[0]) or weights_tl_core(*a)
            )
            shared = copy.copy(f)
            (measure,) = f._built_from(u)
            assert shared._built_from(u)[0] is measure
            assert all(shared._kept(name) is f._kept(name) for name in "xy")
            twin, deep = copy.deepcopy((u, f))  # the memo keeps u's copy alike
            for g, v in ((f, u), (deep, twin), (pickle.loads(pickle.dumps(f)), u), (shared, u)):
                assert len(haar_oracle.assert_read_only(g)) == 2
                assert repr(x0_norm_estimate(g, v, 8, seed=3)) == want
            assert calls == [twin, u]
            monkeypatch.undo()

    def test_a_read_dict_is_the_factor(self):
        for u, p, q in self._cases():
            first = u.support[0]
            for name, change in (
                ("x", lambda d: d.update({first: d[first] + 1e-3})),  # the perturb-x mutant
                ("y", lambda d: d.update({first: 2.0 * d[first]})),
                ("x", lambda d: d.pop(first)),
                ("y", lambda d: d.update({iv(u.max_level + 1, 0): 1.0})),
            ):
                f = factorize(u, p, q)
                change(getattr(f, name))
                assert name in vars(f) and f._kept(name) is None
                plain = self._plain(f)
                assert verify_factorization(u, f) is verify_factorization(u, plain) is False
                assert _outcome(x0_norm_estimate, f, u, 4) == _outcome(
                    x0_norm_estimate, plain, u, 4
                )

    def test_a_copy_keeps_its_rows(self):
        u, p, q = self._cases()[0]
        f = factorize(u, p, q)
        g = copy.copy(f)
        assert f.x is not None and f._kept("x") is None and f._kept("y") is not None
        assert _kept(g) and g._own_rows("x", u) is not None
        assert verify_factorization(u, g) and _kept(g)
        assert g.y == f.y and f._kept("y") is None and g._kept("x") is not None
