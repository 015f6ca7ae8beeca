"""Lattice factorization |u| = |x|^(1-theta) |y|^theta built from the
Triebel-Lizorkin summing weights.

With theta = (q/(q-1)) * ((p-1)/p) and weights w from the multiplier bound,
the factors are y_I = (w_I/|I|)^(1/q) and x_I = (|u_I| |y_I|^-theta)^(1/(1-theta))
on the support (0 elsewhere). The product identity is algebraic; the norm
bound on x is certified sample-by-sample through an exact Hoelder chain.

`factorize` builds its result with `haar._KeptRows._from_rows`, whose
docstring states what a result keeps: the factors as read-only arrays in
support order (the `x` and `y` dicts are built on first read), and the
source, u and the `weights_tl(u, p, q)` measure the factors came from.
Factors and weights are read at u's support rows through that base
(`_field_rows`: the kept array as it is, else one pass over a dict in
support order, else one `get` per row), and the factors' keys are checked
by it (`_keyed_by`). `x0_norm_estimate` given that very u samples against
the kept measure (`_built_from`), on the grid it keeps on the atoms (else
a fresh one), so a factor-sampling run decomposes |u|^(q/2) once; for any
other u it recomputes the measure, the same floats, so the value and the
exceptions are the same.

Every per-row power is `haar._pow`, Python's float `pow` per element
through `np.float_power` (numpy's `**` may differ from it in the last
bit), but one: `_x0_norm_estimate` takes |x|^(1 - theta) with `**`, as it
does the powers of its sampled candidates, since `_pow` there could move
the last bits of `max_lattice_candidate` and of the pinned `verify`
output. The per-row tolerance tests are `_isclose`, `math.isclose` on
arrays.

`x0_norm_estimate` runs its candidates in blocks of `haar._batch_rows`
rows, drawn one block after another from the same generator, so its memory
does not grow with the sample count. A check that fails in any block is
raised after the last block, in the order of the unblocked chain; the
value and the exception are those of one block holding every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicInterval
from .errors import DegenerateThetaError, VerificationError, ZeroInputError
from .haar import (
    HaarExpansion,
    _batch_rows,
    _cell_sum,
    _cells,
    _check_q,
    _fsum,
    _Grid,
    _KeptRows,
    _pow,
    _support_grid,
    _tl_norm,
)
from .pietsch import PietschMeasure, _weights_tl

_IDENTITY_RTOL = 1e-10
_CHAIN_RTOL = 1e-9


@dataclass(frozen=True)
class Factorization(_KeptRows):
    """Coefficient factors and the interpolation exponent used.

    A factorization from `factorize` keeps its factors as read-only arrays
    in support order and builds the `x` and `y` dicts on first read; from
    then on each dict is its factor (`haar._KeptRows`). One built from dicts
    keeps them.
    """

    x: dict[DyadicInterval, float]
    y: dict[DyadicInterval, float]
    theta: float
    p: float
    q: float


def theta(p: float, q: float) -> float:
    """(q/(q-1)) * ((p-1)/p); lies in (0,1) exactly when 1 < p < q < inf."""
    if not p > 1:  # NaN included
        raise ValueError(f"p must exceed 1, got {p}")
    if not q >= p:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    if p == q:
        raise DegenerateThetaError(
            "p = q forces theta = 1 and the factor exponent 1/(1-theta) degenerates"
        )
    _check_q(q)  # finite; the checks above give q > 1
    return (q / (q - 1.0)) * ((p - 1.0) / p)


def factorize(u: HaarExpansion, p: float, q: float) -> Factorization:
    """Split a nonzero scalar expansion, 1 < p < q, using its weights. The
    result keeps u and those weights, which `x0_norm_estimate` reads when
    given that same u."""
    if u.is_zero:
        raise ZeroInputError("cannot factorize the zero expansion")
    if u.dimension != 1:
        raise ValueError("factorize expects a scalar expansion")
    return _factorize(u, p, q, theta(p, q), _weights_tl(u, p, q, _support_grid(u)))


def _factorize(
    u: HaarExpansion, p: float, q: float, exponent: float, measure: PietschMeasure
) -> Factorization:
    """`factorize` from `theta(p, q)` and `weights_tl(u, p, q)`, keeping the
    source (u, measure)."""
    y = _pow(measure._field_rows("weights", u) * np.ldexp(1.0, u.levels), 1.0 / q)
    with np.errstate(over="ignore"):  # inf as in Python
        base = np.abs(u.values[:, 0]) * _pow(y, -exponent)
    x = _pow(base, 1.0 / (1.0 - exponent))
    return Factorization._from_rows(
        u, {"x": x, "y": y}, verified=(measure,), theta=exponent, p=p, q=q
    )


def _fqq_norm(values: np.ndarray, u: HaarExpansion, q: float) -> float:
    """(sum_I |values_I|^q |I|)^(1/q) over u's support rows."""
    terms = _pow(np.abs(values), q) * np.ldexp(1.0, -u.levels)
    return _fsum(terms) ** (1.0 / q)


def _isclose(
    a: np.ndarray, b: np.ndarray, rel_tol: float, abs_tol: float = 0.0
) -> np.ndarray:
    """`math.isclose` elementwise, with its exact semantics: equal values
    pass, inf is close only to itself, NaN to nothing, and otherwise
    |b - a| <= max(rel_tol |a|, rel_tol |b|, abs_tol)."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(b - a)
        close = (
            (diff <= np.abs(rel_tol * b)) | (diff <= np.abs(rel_tol * a)) | (diff <= abs_tol)
        )
    return (a == b) | (close & ~np.isinf(a) & ~np.isinf(b))


def _matches(f: Factorization, u: HaarExpansion) -> bool:
    """Whether both factors are keyed by u's support (`haar._KeptRows._keyed_by`)."""
    return all(f._keyed_by(name, u, subset=False) for name in ("x", "y"))


def verify_factorization(u: HaarExpansion, f: Factorization) -> bool:
    """Product identity |u_I| = |x_I|^(1-theta) |y_I|^theta on the support
    (relative tolerance 1e-10) and the unit bound on the y factor. A power
    past the float range (a theta outside (0, 1) can make one) fails the
    check: its side would be infinite. So does a q outside (0, inf), where
    the unit bound is no norm (`haar._check_q`)."""
    if not (_matches(f, u) and 0.0 < f.q < math.inf):
        return False
    x, y = (np.abs(f._field_rows(name, u)) for name in ("x", "y"))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in Python
            products = _pow(x, 1.0 - f.theta) * _pow(y, f.theta)
        if not _isclose(products, np.abs(u.values[:, 0]), _IDENTITY_RTOL).all():
            return False
        return _fqq_norm(y, u, f.q) <= 1.0 + 1e-12
    except (OverflowError, ZeroDivisionError):
        return False


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
    VerificationError. A sampled candidate whose q-norm leaves the float
    range (raw magnitudes reach 10^3) raises OverflowError. r needs
    f.p > 1: a smaller p raises ValueError after the other argument checks.

    The weights w are those `factorize` kept when u is the very expansion
    f was built from, else `weights_tl(u, f.p, f.q)` computed afresh; both
    give the same floats. The candidates run in blocks of
    `haar._batch_rows` rows on u's grid, drawn block by block from one
    stream, so memory stays bounded however large `n_samples` is. Errors
    keep their order: OverflowError before the r-th mean, comparison,
    unit-ball and cap VerificationErrors, whichever block each failure came
    from.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    if not _matches(f, u):
        raise ValueError("factorization does not match the expansion")
    kept = f._built_from(u)
    if kept is None:
        grid = _support_grid(u)
        measure = _weights_tl(u, f.p, f.q, grid)
    else:  # the measure `factorize` built f from, on u's grid
        (measure,) = kept
        grid = measure._grid_for(u)
    return _x0_norm_estimate(f, u, n_samples, seed, measure, grid)


def _x0_norm_estimate(
    f: Factorization,
    u: HaarExpansion,
    n_samples: int,
    seed: int,
    measure: PietschMeasure,
    grid: _Grid,
) -> float:
    """`x0_norm_estimate` after its argument checks, on `weights_tl(u, f.p,
    f.q)` and the grid of u's support."""
    y_vec = f._field_rows("y", u)
    w_vec = measure._field_rows("weights", u)
    expected = _pow(w_vec * np.ldexp(1.0, u.levels), 1.0 / f.q)
    if not _isclose(expected, y_vec, 1e-9, 1e-300).all():
        raise ValueError("factorization does not match the expansion")
    p, q, th = f.p, f.q, f.theta
    if not p > 1:  # NaN included; r below needs it
        raise ValueError(f"p must exceed 1, got {p}")
    r = p * (q - 1.0) / (p - 1.0)
    norm_u = _tl_norm(u, p, q, grid)
    cap = measure.normalizer ** (1.0 / p) * norm_u

    n_support = len(u.support)
    x_power = np.abs(f._field_rows("x", u)) ** (1.0 - th)
    m_vec = np.ldexp(1.0, -u.levels)

    # candidate 0 is y, then the samples, drawn block by block from one
    # stream; each check's failure is kept until every block is drawn
    rng = np.random.default_rng(seed)
    step = _batch_rows(grid)
    unequal = uncompared = unbounded = False
    peaks = []
    for lo in range(0, n_samples + 1, step):
        candidates = np.empty((min(step, n_samples + 1 - lo), n_support))
        drawn = candidates[1:] if lo == 0 else candidates
        if lo == 0:
            candidates[0] = y_vec
        if len(drawn):
            raw = 10.0 ** rng.uniform(-3.0, 3.0, size=drawn.shape)
            with np.errstate(over="ignore"):
                scales = (raw**q @ m_vec) ** (1.0 / q)
            if not np.all((scales > 0.0) & (scales < math.inf)):
                raise OverflowError(
                    f"a sampled candidate's q-norm leaves the float range at q = {q}"
                )
            np.divide(raw, scales[:, None], out=drawn)
            del raw  # freed, as `ratios` below, before the cell sums: a lower peak

        ratios = candidates / y_vec
        mean_q = ratios ** (q * th) @ w_vec
        mean_r = ratios ** (r * th) @ w_vec
        del ratios
        z_norms_q = candidates**q @ m_vec
        unequal |= not np.allclose(mean_r, z_norms_q, rtol=_CHAIN_RTOL, atol=0.0)
        uncompared |= np.any(mean_q ** (1.0 / q) > mean_r ** (1.0 / r) * (1.0 + _CHAIN_RTOL))
        unbounded |= np.any(mean_q ** (1.0 / q) > 1.0 + _CHAIN_RTOL)

        mixed = x_power * candidates**th
        sums, lengths = _cells(grid, mixed**q)
        means = _cell_sum(sums ** (p / q), lengths) / (1 << u.max_level)
        peaks.append((means ** (1.0 / p)).max())

    if unequal:
        raise VerificationError("r-th weighted mean should equal ||z||^q exactly")
    if uncompared:
        raise VerificationError("weighted mean comparison failed")
    if unbounded:
        raise VerificationError("multiplier argument exceeds the unit ball")
    worst = float(np.max(peaks))  # keeps a NaN peak, which Python's `max` may drop
    if worst > cap * (1.0 + _CHAIN_RTOL):
        raise VerificationError(
            f"sampled candidate exceeds the multiplier cap: {worst} > {cap}"
        )
    return worst ** (1.0 / (1.0 - th))
