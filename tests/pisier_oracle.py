"""Reference implementations of the factorization, its verifier and the
sampled lattice-norm estimate, kept from the per-interval code that the
support-row arrays replaced: each factor, product and tolerance test is one
Python float `pow` and one `math.isclose` per support interval, with the
factors and weights looked up by key. The tests compare the library against
them; they are slow and not part of the package.
"""

import math

import numpy as np

from haarmult import Factorization, VerificationError, tl_norm
from haarmult.haar import _batch_rows, _cell_sum, _support_grid
from haarmult.pisier import _CHAIN_RTOL, _IDENTITY_RTOL

import haar_oracle


def factorize(u, p, q, exponent, measure):
    """`pisier._factorize`: the factors of u from theta(p, q) and
    weights_tl(u, p, q), one interval at a time."""
    x, y = {}, {}
    for interval, (value,) in u.coeffs.items():
        weight = measure.weights[interval]
        y_val = (weight * 2.0**interval.level) ** (1.0 / q)
        y[interval] = y_val
        x[interval] = (abs(value) * y_val ** (-exponent)) ** (1.0 / (1.0 - exponent))
    return Factorization(x=x, y=y, theta=exponent, p=p, q=q)


def _matches(f, u):
    return all(set(factor) == set(u.coeffs) for factor in (f.x, f.y))


def _fqq_norm(coeffs, q):
    return math.fsum(
        abs(value) ** q * 2.0 ** (-interval.level) for interval, value in coeffs.items()
    ) ** (1.0 / q)


def verify_factorization(u, f):
    """The verdict of `haarmult.verify_factorization`."""
    if not _matches(f, u):
        return False
    for interval, (value,) in u.coeffs.items():
        product = abs(f.x[interval]) ** (1.0 - f.theta) * abs(f.y[interval]) ** f.theta
        if not math.isclose(product, abs(value), rel_tol=_IDENTITY_RTOL):
            return False
    return _fqq_norm(f.y, f.q) <= 1.0 + 1e-12


def x0_norm_estimate(f, u, n_samples, seed, measure):
    """`pisier.x0_norm_estimate` on the weights of `measure`: the y check
    one weight at a time, then every candidate exactly, as arrays, with the
    sampled q-norms taken in the library's blocks."""
    for interval, weight in measure.weights.items():
        expected = (weight * 2.0**interval.level) ** (1.0 / f.q)
        if not math.isclose(expected, f.y[interval], rel_tol=1e-9, abs_tol=1e-300):
            raise ValueError("factorization does not match the expansion")
    p, q, th = f.p, f.q, f.theta
    r = p * (q - 1.0) / (p - 1.0)
    cap = measure.normalizer ** (1.0 / p) * tl_norm(u, p, q)

    n_support = len(u.support)
    y_vec = np.array([f.y[interval] for interval in u.support], dtype=float)
    x_vec = np.abs(np.array([f.x[interval] for interval in u.support], dtype=float))
    w_vec = np.array([measure.weights.get(i, 0.0) for i in u.support], dtype=float)
    m_vec = np.ldexp(1.0, -u.levels)

    rng = np.random.default_rng(seed)
    candidates = np.empty((n_samples + 1, n_support))
    candidates[0] = y_vec
    if n_samples:
        raw = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_samples, n_support))
        # a q-norm is a row of a matrix-vector product, which BLAS rounds by
        # the row's place in the matrix, so they are taken in the library's
        # blocks: `haar._batch_rows` rows, y first in the first
        step = _batch_rows(_support_grid(u))
        blocks = np.split(raw, range(step - 1, n_samples, step))
        with np.errstate(over="ignore"):
            scales = np.concatenate([block**q @ m_vec for block in blocks]) ** (1.0 / q)
        if not np.all((scales > 0.0) & (scales < math.inf)):
            raise OverflowError(
                f"a sampled candidate's q-norm leaves the float range at q = {q}"
            )
        candidates[1:] = raw / scales[:, None]

    ratios = candidates / y_vec
    with np.errstate(over="ignore"):  # an inf mean fails its check
        mean_q = ratios ** (q * th) @ w_vec
        mean_r = ratios ** (r * th) @ w_vec
    z_norms_q = candidates**q @ m_vec
    if not np.allclose(mean_r, z_norms_q, rtol=_CHAIN_RTOL, atol=0.0):
        raise VerificationError("r-th weighted mean should equal ||z||^q exactly")
    if np.any(mean_q ** (1.0 / q) > mean_r ** (1.0 / r) * (1.0 + _CHAIN_RTOL)):
        raise VerificationError("weighted mean comparison failed")
    if np.any(mean_q ** (1.0 / q) > 1.0 + _CHAIN_RTOL):
        raise VerificationError("multiplier argument exceeds the unit ball")

    mixed = x_vec ** (1.0 - th) * candidates**th
    sums, lengths = haar_oracle.cells(u.max_level, u.levels, u.positions, mixed**q)
    means = _cell_sum(sums ** (p / q), lengths) / (1 << u.max_level)
    worst = float((means ** (1.0 / p)).max())
    if worst > cap * (1.0 + _CHAIN_RTOL):
        raise VerificationError(
            f"sampled candidate exceeds the multiplier cap: {worst} > {cap}"
        )
    return worst ** (1.0 / (1.0 - th))
