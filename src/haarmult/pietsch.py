"""Constructive summing weights for Haar coefficient multipliers.

Given a nonzero expansion u with block decomposition (u_i, G_i, I_i) and a
per-instance normalizer A, the weight attached to a support interval I in
block i is

    w_I = (1/A) * |I_i|^(1 - p/2) / ||u_i||_2^(2 - p) * |x_I|^2 |I| / ||u||^p.

A is the smallest constant >= 1 with sum_i |I_i|^(1-p/2) ||u_i||_2^p
<= A ||u||^p, which makes sum_I w_I <= 1 automatic and turns the multiplier
bound ||phi.u|| <= A^(1/p) ||u|| (sum |phi_I|^s w_I)^(1/s) into a
deterministic inequality rather than a statistical one. Per block, the sum
of |x_I|^2 |I| is a `math.fsum` over the block's support rows, read from
the decomposition's row form, and the weight constructors read the norm
from the verification that their `decompose` already ran.

The multiplier check reads phi and the weights once per support row into
arrays in support order, shares the factors with the product phi * u, and
sums |phi_I|^s w_I with one `math.fsum`, which is exactly rounded, so the
order of the terms does not matter. The powers are Python's float `pow`,
which rounds differently from numpy's `**` in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .atomic import AtomicDecomposition, _decompose, appendix_constant
from .dyadic import DyadicInterval
from .errors import VerificationError, ZeroInputError
from .haar import (
    HaarExpansion,
    _multiply_rows,
    _phi_rows,
    _square_measures,
    convexify,
    hp_norm,
    l2_norm,
    tl_norm,
)

_SUM_TOL = 1e-12
_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class PietschMeasure:
    """Nonnegative weights per interval, their normalizer A, and the summing
    exponent s (2 for Hardy-space weights, q for Triebel-Lizorkin ones)."""

    weights: dict[DyadicInterval, float]
    normalizer: float
    exponent: float

    def total(self) -> float:
        return math.fsum(self.weights.values())


@dataclass(frozen=True)
class MultiplierReport:
    lhs: float
    rhs: float
    constant: float
    weighted_sum: float
    ok: bool

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "weighted_sum": self.weighted_sum,
            "ok": self.ok,
        }


def validate_measure(m: PietschMeasure, u: HaarExpansion) -> bool:
    """Invariants: weights nonnegative, total <= 1, support inside u's; a NaN
    weight fails."""
    weights = np.fromiter(m.weights.values(), float, len(m.weights))
    if not (weights >= 0).all():
        return False
    if not m.total() <= 1.0 + _SUM_TOL:
        return False
    return m.weights.keys() <= u.coeffs.keys()


def _assemble(
    u: HaarExpansion,
    p: float,
    dec: AtomicDecomposition,
    exponent: float,
    norm_p: float,
) -> PietschMeasure:
    """Weights from a verified decomposition of u built by `decompose` (its
    row form) and `hp_norm(u, p)`, written in support order."""
    norm_p_p = norm_p**p
    terms = _square_measures(u)
    factors = np.empty(len(u.support))
    total = 0.0
    for rows, top_level in zip(dec._rows(), u.levels[dec._top_rows].tolist()):
        l2_sq = math.fsum(terms[rows].tolist())
        top_measure = 2.0 ** (-top_level)
        factors[rows] = top_measure ** (1.0 - p / 2.0) * l2_sq ** ((p - 2.0) / 2.0)
        total += top_measure ** (1.0 - p / 2.0) * l2_sq ** (p / 2.0)
    normalizer = max(1.0, total / norm_p_p)
    # scale * square * 2^-level per row, scale = factor / (A ||u||^p); an
    # overflow gives inf or nan as float arithmetic does, and fails validation
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = factors / (normalizer * norm_p_p) * u.squares
        weights = scaled * np.ldexp(1.0, -u.levels)
    measure = PietschMeasure(
        weights=dict(zip(u.support, weights.tolist())),
        normalizer=normalizer,
        exponent=exponent,
    )
    if not validate_measure(measure, u):
        raise VerificationError(f"weights failed validation: total {measure.total()}")
    return measure


def _weights(u: HaarExpansion, p: float, exponent: float) -> PietschMeasure:
    """The weights of u's own decomposition; the norm comes from the
    verification inside that decomposition."""
    dec, report = _decompose(u, p)
    return _assemble(u, p, dec, exponent, report.norm_p)


def weights_hp(u: HaarExpansion, p: float) -> PietschMeasure:
    """Weights for a scalar multiplier into the p-Hardy space, 0 < p <= 2."""
    if u.is_zero:
        raise ZeroInputError("weights need a nonzero expansion")
    if u.dimension != 1:
        raise ValueError("weights_hp expects a scalar expansion")
    return _weights(u, p, 2.0)


def weights_tl(u: HaarExpansion, p: float, q: float) -> PietschMeasure:
    """Weights for the Triebel-Lizorkin multiplier bound, 0 < p <= q.

    Obtained by decomposing the q/2-convexification |u|^(q/2) in the Hardy
    space with exponent 2p/q; the summing exponent is q.
    """
    if u.is_zero:
        raise ZeroInputError("weights need a nonzero expansion")
    if u.dimension != 1:
        raise ValueError(
            "weights_tl expects a scalar expansion: q applies to scalar expansions only"
        )
    if not 0 < p <= q:
        raise ValueError(f"need 0 < p <= q, got p={p}, q={q}")
    powered = convexify(u, q)
    return _weights(powered, 2.0 * p / q, q)


def weights_vector(u: HaarExpansion, p: float) -> PietschMeasure:
    """Weights for a vector-coefficient multiplier, Euclidean coefficient
    space, summing exponent 2.

    Per block the exact level-2 measure is mu_I = |x_I|^2 |I| / ||u_i||_2^2;
    the assembled weight w_I = ||u_i||_2^p |I_i|^(1-p/2) mu_I / (A ||u||^p)
    reduces to the same formula as the scalar case with Euclidean norms.
    """
    if u.is_zero:
        raise ZeroInputError("weights need a nonzero expansion")
    return _weights(u, p, 2.0)


def h2_measure(u: HaarExpansion) -> dict[DyadicInterval, float]:
    """The exact probability weights |x_I|^2 |I| / ||u||_2^2 of one block.

    For a multiplier into the level-2 space these weights witness the bound
    ||phi.u||_2^2 = ||u||_2^2 * sum |phi_I|^2 mu_I with equality.
    """
    if u.is_zero:
        raise ZeroInputError("h2_measure needs a nonzero expansion")
    denom = l2_norm(u) ** 2
    return dict(zip(u.support, (t / denom for t in _square_measures(u).tolist())))


def check_multiplier_bound(
    u: HaarExpansion,
    p: float,
    phi: dict[DyadicInterval, float],
    m: PietschMeasure,
    q: float | None = None,
) -> MultiplierReport:
    """Evaluate ||phi.u|| <= C ||u|| (sum |phi_I|^s w_I)^(1/s).

    The route is chosen by the measure: exponent s = 2 with a scalar u checks
    the Hardy-space bound with C = A^(1/p); s = q checks the
    Triebel-Lizorkin bound with C = A^(1/p); a vector u checks the Euclidean
    vector bound with C = (A / a_p)^(1/p), where a_p is 1 for p <= 1 and the
    appendix constant (at Carleson constant 4) to the power -p otherwise.

    phi and the weights are read once per support row (a missing entry
    counts as 0), and the product phi * u is built from the same factors.
    """
    if not m.weights.keys() <= u.coeffs.keys():
        raise ValueError("measure does not match the expansion")
    s = m.exponent
    if q is not None and abs(s - q) > 1e-12:
        raise ValueError(f"measure exponent {s} does not match q={q}")
    support = u.support
    factors = _phi_rows(phi, u)
    weights = np.fromiter(map(m.weights.get, support, repeat(0.0)), float, len(support))
    powers = np.array(list(map(pow, np.abs(factors).tolist(), repeat(s))), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in Python
        terms = powers * weights
    weighted = math.fsum(terms.tolist())
    tl_route = u.dimension == 1 and s != 2.0
    norm_of = partial(tl_norm, p=p, q=s) if tl_route else partial(hp_norm, p=p)
    lhs = norm_of(_multiply_rows(factors, u))
    norm = norm_of(u)
    lower = appendix_constant(p, 4) ** (-p) if u.dimension > 1 and p > 1 else 1.0
    constant = (m.normalizer / lower) ** (1.0 / p)
    rhs = constant * norm * weighted ** (1.0 / s)
    return MultiplierReport(
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        weighted_sum=weighted,
        ok=lhs <= rhs * (1.0 + _BOUND_RTOL),
    )
