"""Lattice factorization |u| = |x|^(1-theta) |y|^theta built from the
Triebel-Lizorkin summing weights.

With theta = (q/(q-1)) * ((p-1)/p) and weights w from the multiplier bound,
the factors are y_I = (w_I/|I|)^(1/q) and x_I = (|u_I| |y_I|^-theta)^(1/(1-theta))
on the support (0 elsewhere). The product identity is algebraic; the norm
bound on x is certified sample-by-sample through an exact Hoelder chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicInterval
from .errors import DegenerateThetaError, VerificationError, ZeroInputError
from .haar import HaarExpansion, push_down, support_arrays, tl_norm
from .pietsch import weights_tl

_IDENTITY_RTOL = 1e-10
_CHAIN_RTOL = 1e-9


@dataclass(frozen=True)
class Factorization:
    """Coefficient factors and the interpolation exponent used."""

    x: dict[DyadicInterval, float]
    y: dict[DyadicInterval, float]
    theta: float
    p: float
    q: float


def theta(p: float, q: float) -> float:
    """(q/(q-1)) * ((p-1)/p); lies in (0,1) exactly when 1 < p < q."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if q < p:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    if p == q:
        raise DegenerateThetaError(
            "p = q forces theta = 1 and the factor exponent 1/(1-theta) degenerates"
        )
    return (q / (q - 1.0)) * ((p - 1.0) / p)


def factorize(u: HaarExpansion, p: float, q: float) -> Factorization:
    """Split a nonzero scalar expansion, 1 < p < q, using its weights."""
    if u.is_zero:
        raise ZeroInputError("cannot factorize the zero expansion")
    if u.dimension != 1:
        raise ValueError("factorize expects a scalar expansion")
    exponent = theta(p, q)
    measure = weights_tl(u, p, q)
    x: dict[DyadicInterval, float] = {}
    y: dict[DyadicInterval, float] = {}
    for interval, (value,) in u.coeffs.items():
        weight = measure.weights[interval]
        y_val = (weight * 2.0**interval.level) ** (1.0 / q)
        y[interval] = y_val
        x[interval] = (abs(value) * y_val ** (-exponent)) ** (1.0 / (1.0 - exponent))
    return Factorization(x=x, y=y, theta=exponent, p=p, q=q)


def _fqq_norm(coeffs: dict[DyadicInterval, float], q: float) -> float:
    return math.fsum(
        abs(value) ** q * 2.0 ** (-interval.level)
        for interval, value in coeffs.items()
    ) ** (1.0 / q)


def verify_factorization(u: HaarExpansion, f: Factorization) -> bool:
    """Product identity |u_I| = |x_I|^(1-theta) |y_I|^theta on the support
    (relative tolerance 1e-10) and the unit bound on the y factor."""
    if set(f.x) != set(u.coeffs) or set(f.y) != set(u.coeffs):
        return False
    for interval, (value,) in u.coeffs.items():
        product = abs(f.x[interval]) ** (1.0 - f.theta) * abs(f.y[interval]) ** f.theta
        if not math.isclose(product, abs(value), rel_tol=_IDENTITY_RTOL):
            return False
    return _fqq_norm(f.y, f.q) <= 1.0 + 1e-12


def x0_norm_estimate(
    f: Factorization, u: HaarExpansion, n_samples: int, seed: int = 0
) -> float:
    """Sampled lower bound on the extrapolation-lattice norm of the x factor.

    The lattice norm is the supremum of
        ||(|x_I|^(1-theta) |z_I|^theta)_I||_{p,q}^(1/(1-theta))
    over the unit ball ||z||_{q,q} <= 1, which no finite computation
    exhausts; this returns the maximum over the canonical candidate z = y and
    `n_samples` random unit-norm candidates (log-uniform magnitudes on the
    support). Each candidate is also pushed through the exact Hoelder chain

        (sum |y_I|^(-q theta) |z_I|^(q theta) w_I)^(1/q) <= 1,

    where with r = p(q-1)/(p-1) >= q the r-th weighted mean dominates the
    q-th one (the weights total at most 1) and r*theta = q turns the r-th
    mean into ||z||_{q,q}^q exactly, plus the resulting cap

        value^(1-theta) <= A^(1/p) ||u||_{p,q}.

    All of these must hold for every candidate; a violation raises
    VerificationError.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    measure = weights_tl(u, f.p, f.q)
    for interval, weight in measure.weights.items():
        expected = (weight * 2.0**interval.level) ** (1.0 / f.q)
        if not math.isclose(expected, f.y[interval], rel_tol=1e-9, abs_tol=1e-300):
            raise ValueError("factorization does not match the expansion")
    p, q, th = f.p, f.q, f.theta
    r = p * (q - 1.0) / (p - 1.0)
    norm_u = tl_norm(u, p, q)
    cap = measure.normalizer ** (1.0 / p) * norm_u

    support = list(u.coeffs)
    n_support = len(support)
    y_vec = np.array([f.y[i] for i in support])
    x_vec = np.array([abs(f.x[i]) for i in support])
    w_vec = np.array([measure.weights[i] for i in support])
    m_vec = np.array([2.0 ** (-i.level) for i in support])

    rng = np.random.default_rng(seed)
    candidates = np.empty((n_samples + 1, n_support))
    candidates[0] = y_vec
    if n_samples:
        raw = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_samples, n_support))
        scales = (raw**q @ m_vec) ** (1.0 / q)
        candidates[1:] = raw / scales[:, None]

    ratios = candidates / y_vec
    mean_q = ratios ** (q * th) @ w_vec
    mean_r = ratios ** (r * th) @ w_vec
    z_norms_q = candidates**q @ m_vec
    if not np.allclose(mean_r, z_norms_q, rtol=_CHAIN_RTOL):
        raise VerificationError("r-th weighted mean should equal ||z||^q exactly")
    if np.any(mean_q ** (1.0 / q) > mean_r ** (1.0 / r) * (1.0 + _CHAIN_RTOL)):
        raise VerificationError("weighted mean comparison failed")
    if np.any(mean_q ** (1.0 / q) > 1.0 + _CHAIN_RTOL):
        raise VerificationError("multiplier argument exceeds the unit ball")

    mixed = x_vec ** (1.0 - th) * candidates**th
    leaf_sums = push_down(u.max_level, *support_arrays(u), mixed**q)
    mixed_norms = np.mean(leaf_sums ** (p / q), axis=1) ** (1.0 / p)
    worst = float(mixed_norms.max())
    if worst > cap * (1.0 + _CHAIN_RTOL):
        raise VerificationError(
            f"sampled candidate exceeds the multiplier cap: {worst} > {cap}"
        )
    return worst ** (1.0 / (1.0 - th))
