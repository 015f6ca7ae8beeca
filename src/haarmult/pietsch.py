"""Constructive summing weights for Haar coefficient multipliers.

Given a nonzero expansion u with block decomposition (u_i, G_i, I_i) and a
per-instance normalizer A, the weight attached to a support interval I in
block i is

    w_I = (1/A) * |I_i|^(1 - p/2) / ||u_i||_2^(2 - p) * |x_I|^2 |I| / ||u||^p.

A is the smallest constant >= 1 with sum_i |I_i|^(1-p/2) ||u_i||_2^p
<= A ||u||^p, which makes sum_I w_I <= 1 automatic and turns the multiplier
bound ||phi.u|| <= A^(1/p) ||u|| (sum |phi_I|^s w_I)^(1/s) into a
deterministic inequality rather than a statistical one. Per block, the sum
of |x_I|^2 |I| is exactly rounded over the block's support rows, read from
the decomposition's row form (`math.fsum`, or `haar._fsum` for a block as
long as a row it bins), and the weight constructors read the norm from the
verification that their `decompose` already ran.

The three weight constructors build through one core, `_weights(u, p, q,
grid)`: it refuses the zero expansion, decomposes u at p with summing
exponent 2 (q None: the Hardy and vector routes) or |u|^(q/2) at 2p/q with
summing exponent q (the Triebel-Lizorkin route) on one grid of u's support
(|u|^(q/2) has u's support arrays), and assembles the weights
(`_assemble`); each constructor adds only its own scalar check. The measure is kept by
`haar._KeptRows._from_rows`, whose docstring states what a result keeps:
the weights as a read-only array in support order (the `weights` dict is
built on first read), the grid of u's support, and, for a Hardy or
vector measure, its source: u, p and the `hp_norm(u, p)` its verification
computed. The multiplier checks, `validate_measure`, `PietschMeasure.total`
and `pisier` take the array as it is when its support is u's
(`_KeptRows._field_rows`), sum on the kept grid (`_grid_for`), and read
the kept norm for that very u at that p (`_built_from`). A
Triebel-Lizorkin measure keeps no source, at q = 2 too: it was built on
|u|^(q/2), an expansion no caller holds. Nothing is cached: each
constructor call builds a fresh measure.

The multiplier check is batched: `check_multiplier_bounds` takes K
multipliers as a (K, n) array in support order, and `check_multiplier_bound`
is its K = 1 case on the row read from a phi dict. Per batch it checks the
measure's keys, reads the weights into a support-order array, takes the
grid of u's support (`haar._Grid`: the measure's own, else built),
||u|| (the measure's own, else computed) and C once. The route is one
line, `q_tl`: a scalar u with s != 2 is checked on the q-variation at
q = s, any other on the square function (q_tl None), and the vector
constant reads `atomic._lower_constant` at Carleson constant 4. One norm
core serves both sides at q_tl: `haar._norm` gives ||u||, and
`haar._product_norms` the norms of the K products phi_k * u, from batched
`_cells` calls on that grid, with no expansion built. The weight constructors
build one grid too (`_weights`, which a `verify` trial hands u's), which
the decomposition inside them and the measure keep. Each row's |phi_I|^s w_I is summed by `haar._fsum_rows`, exactly
rounded and bit for bit `math.fsum`, so the order of the terms does not
matter; so are the weights' totals.

A weight dict and phi are read at u's support rows through
`haar._support_rows`: a plain dict whose keys are u's support in support
order (the `weights` a constructor's measure builds, and any dict zipped
from `u.support`) in one pass over its values, any other mapping with one
`get` per row; both paths give the same floats. One key check,
`_KeptRows._keyed_by`, serves `check_multiplier_bounds` and
`validate_measure`: kept rows of u's support and a dict in support order
pass with no interval hashed, any other mapping by key-set comparison.
`_assemble` checks the measure it built with `validate_measure`, and a
refused one raises VerificationError carrying the measure as its report.

The powers |phi_I|^s of a batch are one `haar._pow` call: `np.float_power`,
which calls libm `pow` once per element, so each is bit for bit Python's
float `pow`. Do not replace it with numpy's `**` or `np.power`. On glibc
2.36 with numpy 2.4.6, over 2,000,000 uniform draws x in [0, 1), `x * x`
(and numpy's `x ** 2.0`, which squares) differs from `pow(x, 2.0)` in the
last bit on 1,667 of them, and numpy's `power` at exponent 3.0, or with an
array of exponents, on about 107,000; `np.float_power` on none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .atomic import AtomicDecomposition, _block_order, _decompose, _lower_constant
from .dyadic import DyadicInterval
from .errors import VerificationError, ZeroInputError
from .haar import (
    HaarExpansion,
    _batch_rows,
    _check_exponents,
    _check_q,
    _FSUM_MIN_ROW,
    _fsum,
    _fsum_rows,
    _Grid,
    _KeptRows,
    _norm,
    _pow,
    _product_norms,
    _square_measures,
    _support_grid,
    _support_rows,
    _unreal,
    convexify,
)

_SUM_TOL = 1e-12
_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class PietschMeasure(_KeptRows):
    """Nonnegative weights per interval, their normalizer A, and the summing
    exponent s (2 for Hardy-space weights, q for Triebel-Lizorkin ones).

    A measure from the weight constructors keeps its weights as a read-only
    array in support order and builds the `weights` dict on first read; from
    then on the dict is the measure (`haar._KeptRows`). A measure built from
    a dict keeps that dict.
    """

    weights: dict[DyadicInterval, float]
    normalizer: float
    exponent: float

    def total(self) -> float:
        rows = self._kept("weights")
        return math.fsum(self.weights.values()) if rows is None else _fsum(rows)


@dataclass(frozen=True)
class MultiplierReport:
    lhs: float
    rhs: float
    constant: float
    weighted_sum: float
    ok: bool

    def as_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}


def validate_measure(m: PietschMeasure, u: HaarExpansion) -> bool:
    """Invariants: normalizer in [1, inf), exponent in (0, inf), weights
    nonnegative, total <= 1, support inside u's; a NaN weight, normalizer or
    exponent fails. A measure that keeps its rows is checked on them, with
    no dict built when they belong to u's support."""
    if not (1.0 <= m.normalizer < math.inf and 0.0 < m.exponent < math.inf):
        return False
    rows = m._kept("weights")
    weights = np.fromiter(m.weights.values(), float, len(m.weights)) if rows is None else rows
    if not ((weights >= 0).all() and m.total() <= 1.0 + _SUM_TOL):
        return False
    return m._keyed_by("weights", u, subset=True)


def _assemble(
    u: HaarExpansion,
    p: float,
    dec: AtomicDecomposition,
    norm_p: float,
    q: float | None = None,
) -> PietschMeasure:
    """Weights from a verified decomposition of u built by `decompose` (its
    row form) and `hp_norm(u, p)`, summing exponent 2 for q None and q for
    the Triebel-Lizorkin route (where u is |u|^(q/2) and p is 2p/q), kept
    by `haar._KeptRows._from_rows` with the decomposition's grid of u's
    support and, on the q None route alone, the source (u, p, norm_p). A
    measure that `validate_measure` refuses raises VerificationError
    carrying it as the report."""
    norm_p_p = norm_p**p
    order, ends = _block_order(dec._block, len(dec._top_rows))
    terms = _square_measures(u)[order]
    listed = terms.tolist()
    per_block = []
    total = 0.0
    for lo, hi, top_level in zip([0] + ends, ends, u.levels[dec._top_rows].tolist()):
        # `_fsum` on long blocks only: on a short one its fixed cost per call
        # exceeds the `math.fsum` of a list slice
        l2_sq = math.fsum(listed[lo:hi]) if hi - lo < _FSUM_MIN_ROW else _fsum(terms[lo:hi])
        top_measure = 2.0 ** (-top_level)
        per_block.append(top_measure ** (1.0 - p / 2.0) * l2_sq ** ((p - 2.0) / 2.0))
        total += top_measure ** (1.0 - p / 2.0) * l2_sq ** (p / 2.0)
    normalizer = max(1.0, total / norm_p_p)
    # scale * square * 2^-level per row, scale = factor / (A ||u||^p); an
    # overflow gives inf or nan as float arithmetic does, and fails validation
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.array(per_block)[dec._block] / (normalizer * norm_p_p) * u.squares
        weights = scaled * np.ldexp(1.0, -u.levels)
    # a TL measure, at q = 2 too, would keep |u|^(q/2), which no caller holds
    verified = (p, norm_p) if q is None else None
    exponent = 2.0 if q is None else q
    grid = dec._grid_for(u)
    m = PietschMeasure._from_rows(
        u, {"weights": weights}, grid, verified, normalizer=normalizer, exponent=exponent
    )
    if not validate_measure(m, u):
        message = f"weights failed validation: total {m.total()}, normalizer {normalizer}"
        raise VerificationError(message, m)
    return m


def _weights(
    u: HaarExpansion, p: float, q: float | None = None, grid: _Grid | None = None
) -> PietschMeasure:
    """The weights of every route, on `grid`, else on one fresh grid of u's
    support: for q None those of u's own decomposition at p, summing
    exponent 2 (the Hardy and vector routes); for a q those of
    |u|^(q/2) decomposed at 2p/q, summing exponent q (the Triebel-Lizorkin
    route). |u|^(q/2) shares u's `levels` and `positions`, so u's grid is
    its grid too. The norm comes from the verification inside the
    decomposition."""
    if u.is_zero:
        raise ZeroInputError("weights need a nonzero expansion")
    if q is not None:
        _check_exponents(p, q)
        u, p = convexify(u, q), 2.0 * p / q
    dec, report = _decompose(u, p, _support_grid(u) if grid is None else grid)
    return _assemble(u, p, dec, report.norm_p, q)


def weights_hp(u: HaarExpansion, p: float) -> PietschMeasure:
    """Weights for a scalar multiplier into the p-Hardy space, 0 < p <= 2."""
    if u.dimension != 1:
        raise ValueError("weights_hp expects a scalar expansion")
    return _weights(u, p)


def weights_tl(u: HaarExpansion, p: float, q: float) -> PietschMeasure:
    """Weights for the Triebel-Lizorkin multiplier bound, 0 < p <= q < inf.

    Obtained by decomposing the q/2-convexification |u|^(q/2) in the Hardy
    space with exponent 2p/q; the summing exponent is q. |u|^(q/2) shares
    u's support arrays, so the grid the measure keeps is that of u's
    support too.
    """
    if u.dimension != 1:
        raise ValueError(
            "weights_tl expects a scalar expansion: q applies to scalar expansions only"
        )
    return _weights(u, p, q)


def weights_vector(u: HaarExpansion, p: float) -> PietschMeasure:
    """Weights for a vector-coefficient multiplier, Euclidean coefficient
    space, summing exponent 2.

    Per block the exact level-2 measure is mu_I = |x_I|^2 |I| / ||u_i||_2^2;
    the assembled weight w_I = ||u_i||_2^p |I_i|^(1-p/2) mu_I / (A ||u||^p)
    reduces to the same formula as the scalar case with Euclidean norms.
    """
    return _weights(u, p)


def check_multiplier_bound(
    u: HaarExpansion,
    p: float,
    phi: dict[DyadicInterval, float],
    m: PietschMeasure,
    q: float | None = None,
) -> MultiplierReport:
    """Evaluate ||phi.u|| <= C ||u|| (sum |phi_I|^s w_I)^(1/s).

    The route is chosen by the measure: exponent s = 2 with a scalar u checks
    the Hardy-space bound on the square function with C = A^(1/p), a TL
    measure at q = 2 included; s = q != 2 checks the Triebel-Lizorkin bound
    on the q-variation with C = A^(1/p); a vector u checks the Euclidean
    vector bound with C = (A / a_p)^(1/p), where a_p is
    `atomic._lower_constant` at Carleson constant 4: 1 for p <= 1 and the
    appendix constant to the power -p otherwise.

    phi is read at u's support rows (a missing entry counts as 0): in one
    pass over its values when it is a plain dict keyed by u's support in
    support order, else one `get` per row (`haar._support_rows`); this is
    `check_multiplier_bounds` on that one row.
    """
    return check_multiplier_bounds(u, p, _support_rows(phi, u)[None], m, q)[0]


def check_multiplier_bounds(
    u: HaarExpansion,
    p: float,
    phis: np.ndarray,
    m: PietschMeasure,
    q: float | None = None,
) -> list[MultiplierReport]:
    """`check_multiplier_bound` for K multipliers at once: row k of the
    (K, n) array `phis` holds phi_k at u's n support rows, in support order.
    Returns the K reports, each bit for bit that of the single check; K = 0
    gives [] after the argument checks.

    A measure with a normalizer outside [1, inf) or an exponent outside
    (0, inf) raises ValueError right after the key check, before any work.
    The key check, the weights, ||u|| and C are computed once per batch: a
    constructor's measure gives its support-order array as it is
    (`haar._KeptRows._field_rows`), a weight dict in support order is read
    in one pass with no key hashed (`haar._support_rows`), and any other by
    key. The products phi_k * u are summed in batched `_cells` calls on the
    grid of u's support, which ||u|| shares, with no expansion built, in
    batches of `haar._batch_rows(grid)` rows. That grid is the one a
    constructor's measure keeps when u has the measure's support and max
    level, else it is built (`haar._KeptRows._grid_for`).
    ||u|| is the norm a constructor's measure kept from its verification
    when u is the very expansion it was built from and p its p (only a
    Hardy or vector measure keeps one), else it is computed on the route's
    norm (`haar._KeptRows._built_from`). A complex or text `phis`, told by
    its dtype, raises TypeError. A negative weighted sum, whose root 1/s may
    not be real, raises ValueError, and a constant C past the float range an
    OverflowError naming it. When a batch fails, its rows go
    again one by one through this check, so a failing row raises what its
    single check raises, the first such row in order.
    """
    if not m._keyed_by("weights", u, subset=True):
        raise ValueError("measure does not match the expansion")
    if not 1.0 <= m.normalizer < math.inf:  # NaN included
        raise ValueError(f"measure normalizer must lie in [1, inf), got {m.normalizer}")
    _check_q(m.exponent)  # the summing exponent, 2 or the q of the route
    s = m.exponent
    if q is not None and not abs(s - q) <= 1e-12:  # NaN included
        raise ValueError(f"measure exponent {s} does not match q={q}")
    phis = np.asarray(phis)
    if _unreal(phis):  # read from the dtype alone: a float array pays no pass
        raise TypeError(f"phis is {_unreal(phis)}, of dtype {phis.dtype}, not real numbers")
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != len(u.support):
        raise ValueError(f"phis has shape {phis.shape}, expected (K, {len(u.support)})")
    if not len(phis):
        return []
    weights = m._field_rows("weights", u)
    grid = m._grid_for(u)
    try:
        powers = _pow(np.abs(phis), s)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in Python
            terms = powers * weights
        weighted = _fsum_rows(terms)
        q_tl = s if u.dimension == 1 and s != 2.0 else None  # the route
        step = _batch_rows(grid)
        lhs = []
        for lo in range(0, len(phis), step):
            lhs += _product_norms(u, phis[lo : lo + step], p, q_tl, grid)
        kept = m._built_from(u)  # the norm the measure's verification computed, at its p
        norm = kept[1] if kept is not None and kept[0] == p else _norm(u, p, q_tl, grid)
        lower = _lower_constant(u, p, 4)
        try:
            constant = (m.normalizer / lower) ** (1.0 / p)
        except OverflowError:  # Python's float ** past the float range
            raise OverflowError(f"multiplier constant C at p={p} leaves the float range") from None
        reports = []
        for left, w in zip(lhs, weighted):
            if w < 0.0:
                raise ValueError(f"weighted sum {w} is negative: the measure has negative weights")
            rhs = constant * norm * w ** (1.0 / s)
            reports.append(
                MultiplierReport(
                    lhs=left,
                    rhs=rhs,
                    constant=constant,
                    weighted_sum=w,
                    ok=left <= rhs * (1.0 + _BOUND_RTOL),
                )
            )
        return reports
    except (ArithmeticError, ValueError):
        if len(phis) > 1:  # raise what the first failing row raises alone
            for k in range(len(phis)):
                check_multiplier_bounds(u, p, phis[k : k + 1], m, q)
        raise
