"""Block decomposition guarantees and the appendix constant."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    multiply,
    sup_square,
    verify_decomposition,
)


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

    def test_blocks_pass_block_predicate(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            u = random_scalar(rng, int(rng.integers(1, 7)))
            dec = decompose(u, 1.0)
            support = u.support_family()
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
            lhs = hp_norm(multiply(phi, u), p) ** p
            rhs = math.fsum(
                hp_norm(multiply(phi, u.restrict(block)), p) ** p
                for block, _ in dec.pieces
            )
            assert lhs <= rhs * (1 + 1e-12)


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
