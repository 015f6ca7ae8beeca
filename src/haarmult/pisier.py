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
the kept measure (`_built_from`), on the grid that measure keeps, so a
factor-sampling run decomposes |u|^(q/2) once and builds one grid; for any
other u it recomputes the measure, the same floats, so the value and the
exceptions are the same.

Every per-row power is `haar._pow`, Python's float `pow` per element
through `np.float_power` (numpy's `**` may differ from it in the last
bit), but those of `_Chain`. Its chain takes |x|^(1 - theta) with `**`,
as it does the powers of its sampled candidates, since `_pow` there could
move the last bits of `max_lattice_candidate` and of the pinned `verify`
output; its certificate's y^q and its reach's |x|^((1 - theta) q) enter
only bounds whose derived rounding margin covers `**`. The per-row
tolerance tests are `_isclose`, `math.isclose` on arrays.

`x0_norm_estimate` runs its candidates in blocks of `haar._batch_rows`
rows, drawn one block after another from the same generator, so its memory
does not grow with the sample count. A check that fails in any block is
raised after the last block, in the order of the unblocked chain. y runs
exactly first. In exact arithmetic whether the chain's three checks pass
does not depend on the candidate, so once a block of
`_SCREEN_MIN_ENTRIES` sampled entries or more is drawn, one O(n)
certificate per call (`_Chain.certified`, from the power-mean inequality
and a derived rounding bound) can show that no sampled candidate would
fail one or raise. In a certified call such a block runs
exactly only if its reach, a bound on its largest peak from its L^q means
and then its cell sums, meets the largest exact peak so far. Every other
block runs exactly. So the value, every check and every exception are
those of running each block exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    _tl_norm,
)
from .pietsch import PietschMeasure, weights_tl

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
    given that same u. OverflowError if a factor x_I leaves the normal float
    range (`_factorize`)."""
    if u.is_zero:
        raise ZeroInputError("cannot factorize the zero expansion")
    if u.dimension != 1:
        raise ValueError("factorize expects a scalar expansion")
    return _factorize(u, p, q, theta(p, q), weights_tl(u, p, q))


def _factorize(
    u: HaarExpansion, p: float, q: float, exponent: float, measure: PietschMeasure
) -> Factorization:
    """`factorize` from `theta(p, q)` and `weights_tl(u, p, q)`, keeping the
    source (u, measure). OverflowError if an x_I overflows or falls below
    2^-1022, the normal float range: a subnormal or zero x_I has lost the
    digits that the product identity of `verify_factorization` checks."""
    y = _pow(measure._field_rows("weights", u) * np.ldexp(1.0, u.levels), 1.0 / q)
    try:
        with np.errstate(over="ignore"):  # inf as in Python
            base = np.abs(u.values[:, 0]) * _pow(y, -exponent)
        x = _pow(base, 1.0 / (1.0 - exponent))
        if not ((x >= 2.0**-1022) & (x < math.inf)).all():
            raise OverflowError
    except OverflowError:
        raise OverflowError(
            f"a factor x_I at theta={exponent} leaves the normal float range"
        ) from None
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


# sampled entries (rows times support rows) from which a block of
# `x0_norm_estimate` is bounded (`_Chain.reach`) before it runs exactly;
# smaller blocks, verify's one block of 20 samples over about 60 rows among
# them, run exactly at once, as the certificate's and the reach's fixed cost
# outweighs what they save on a small block. The crossover lies near 2,000
# to 4,000 entries (CHANGES.md); the value is left above it, untuned
_SCREEN_MIN_ENTRIES = 1 << 13
_LN10 = math.log(10.0)
_UNIT = 2.0**-53  # the unit roundoff u
# the largest |ln| of any value the exact chain of a certified call, or a
# reach, may hold: as |I| >= 2^-61, a cell length is at most 2^61, a cell
# lies in at most 62 support rows and no sum has e^20 terms, every value of
# the chain, its sums and its cell sums among them, stays a normal float
# below e^709
_LOG_RANGE = 600.0
# the relative error that one numpy exp, log, power, product or quotient
# adds to a value within that range: 8 ulps, 16 u, of its exact result on
# its float arguments (above what libm and numpy's SIMD loops claim), plus
# u |a ln v| <= u _LOG_RANGE for each of up to four roundings in a computed
# exponent a (as in th * q * ln 10)
_OP_ERROR = (16.0 + 4.0 * _LOG_RANGE) * _UNIT


class _Chain:
    """The candidate blocks of one `x0_norm_estimate` call.

    `exact` is the chain as it is computed and checked: it raises the
    OverflowError of a sampled q-norm, and gives each check's failure and
    the block's largest peak.

    `certified` settles the checks of every sampled block at once. With
    r theta = q the r-th weighted mean of a candidate z is
    sum_I z_I^q |I| c_I, c_I = w_I / (y_I^q |I|), a c-weighted mean of
    ||z||_q^q = 1; and as the weights total W <= 1, the q-th mean is at most
    W^(1 - q/r) times the r-th mean to the power q/r (the power-mean
    inequality: Hardy, Littlewood and Polya, Inequalities, 2.9). So all
    three checks pass when every c_I is close enough to 1, with room left
    for |r theta - q| |ln(z/y)| and the chain's rounding, and none of them
    depends on the candidate. The flag holds when x and y are positive and
    finite, 0 < w <= 1, theta > 0 and p <= q <= r; every value the exact
    chain of a sampled block holds lies within e^+-`_LOG_RANGE`; max |c_I -
    1| plus those two terms is at most `_CHAIN_RTOL` / 4; and the exactly
    rounded sum of w is at most 1 + 1e-12. The exact run of every sampled
    block of a certified call then fails no check, raises nothing and
    warns of nothing.

    `reach` bounds the largest peak of a sampled block of a certified call.
    A candidate's peak is the L^p mean on [0, 1) of its cell function
    F = (sum_I |x_I|^((1 - theta) q) z_I^(theta q) 1_I)^(1/q), no larger
    than its L^q mean (sum_I |x_I|^((1 - theta) q) z_I^(theta q) |I|)^(1/q)
    for p <= q; that takes two exps per entry and two matrix-vector
    products. Only when the largest L^q mean meets the largest exact peak
    so far does `reach` take the cell sums of the same work block. Either
    bound is lifted by `slack`, so it lies at or above every exact peak of
    the block.
    """

    def __init__(
        self, grid: _Grid, u: HaarExpansion, x: np.ndarray, y: np.ndarray, w: np.ndarray,
        exponents: tuple[float, float, float, float],
    ) -> None:
        self.grid, self.x, self.y, self.w = grid, x, y, w
        self.p, self.q, self.th, self.r = exponents
        self.x_power = np.abs(x) ** (1.0 - self.th)
        self.m = np.ldexp(1.0, -u.levels)
        self.leaves = 1 << u.max_level
        # the slack that lifts each reach, in ln: an exact peak is within
        # 12 op errors (`_OP_ERROR`), one support sum (of z's q-norm), one
        # cell's sum of at most L + 1 terms and one sum over the cells of
        # the real L^p mean of its candidate; the L^q reach within 9 op
        # errors and two support sums of the real L^q mean, and the
        # cell-sum reach within 11 op errors, a support sum and the two cell
        # sums of the real L^p mean. A sum of k positive terms adds at most
        # 1.01 k u, and the powers 1/q and 1/p undo the gain q of the cell
        # function's q-th power
        self.slack = 24.0 * _OP_ERROR + 3.03 * (len(y) + len(grid.owner) + u.max_level + 1) * _UNIT

    def exact(
        self, exponents: np.ndarray | None, with_y: bool
    ) -> tuple[tuple[bool, bool, bool], float]:
        """Each check's failure (unequal, uncompared, unbounded) and the
        largest peak of the block: y when `with_y`, then the candidates
        10^exponents scaled to unit q-norm, none when `exponents` is None."""
        p, q, th, r = self.p, self.q, self.th, self.r
        k = 0 if exponents is None else len(exponents)
        candidates = np.empty((k + with_y, len(self.y)))
        drawn = candidates[1:] if with_y else candidates
        if with_y:
            candidates[0] = self.y
        if k:
            raw = 10.0**exponents
            with np.errstate(over="ignore"):
                scales = (raw**q @ self.m) ** (1.0 / q)
            if not np.all((scales > 0.0) & (scales < math.inf)):
                raise OverflowError(
                    f"a sampled candidate's q-norm leaves the float range at q = {q}"
                )
            np.divide(raw, scales[:, None], out=drawn)
            del raw  # freed, as `ratios` below, before the cell sums: a lower peak

        ratios = candidates / self.y
        with np.errstate(over="ignore"):  # an inf mean fails its check
            mean_q = ratios ** (q * th) @ self.w
            mean_r = ratios ** (r * th) @ self.w
        del ratios
        z_norms_q = candidates**q @ self.m
        failed = (
            not np.allclose(mean_r, z_norms_q, rtol=_CHAIN_RTOL, atol=0.0),
            np.any(mean_q ** (1.0 / q) > mean_r ** (1.0 / r) * (1.0 + _CHAIN_RTOL)),
            np.any(mean_q ** (1.0 / q) > 1.0 + _CHAIN_RTOL),
        )

        mixed = self.x_power * candidates**th
        sums, lengths = _cells(self.grid, mixed**q)
        means = _cell_sum(sums ** (p / q), lengths) / self.leaves
        return failed, (means ** (1.0 / p)).max()

    @cached_property
    def certified(self) -> bool:
        """Whether the exact run of every sampled block would fail no check
        and raise nothing (class docstring)."""
        p, q, th, r = self.p, self.q, self.th, self.r
        x, y, w = np.abs(self.x), self.y, self.w
        positive = np.all((np.minimum(x, y) > 0.0) & (np.maximum(x, y) < math.inf))
        if not (positive and np.all((w > 0.0) & (w <= 1.0)) and th > 0.0 and p <= q <= r):
            return False
        # a sampled z_I is 10^e_I / s^(1/q) with s = sum_J 10^(q e_J) |J|
        # and |e| <= 3, s >= 10^(q e_I) |I| and s <= 10^(3q) (L + 1), so
        # |ln z_I| <= 6 ln 10 + (L + 1) ln 2 / q; the chain's largest |ln|
        # are those of its q-th and r theta-th powers and of w times them
        y_log = np.abs(np.log(y)).max()
        z_log = 6.0 * _LN10 + math.log(2.0 * self.leaves) / q
        rho = r * th  # the exponent the exact chain takes
        span = max(q, rho) * (np.abs(np.log(x)).max() + y_log + z_log) - np.log(w.min())
        if not span <= _LOG_RANGE:
            return False
        # the margin: the r-th mean takes a quotient, its power rho, a
        # product and a support sum, ||z||_q^q a power and a support sum,
        # and c a power, a product and a quotient, so their ratio is within
        # (rho + 8) op errors and two sums of n terms, 1.01 n u each, of a
        # c-weighted mean of 1, lifted by at most |rho - q| |ln(z/y)|. The
        # q-th mean's two checks divide such errors by q or r, both above 1,
        # against all of `_CHAIN_RTOL`, and W^((1 - q/r)/q) adds at most
        # 1e-12: the factor 4 leaves room for them and the second-order terms
        margin = (rho + 8.0) * _OP_ERROR + 2.02 * len(y) * _UNIT
        c = w / (y**q * self.m)
        off = np.abs(c - 1.0).max() + abs(rho - q) * (z_log + y_log) + margin
        return bool(off <= _CHAIN_RTOL / 4.0 and _fsum(w) <= 1.0 + 1e-12)

    @cached_property
    def _x_q(self) -> np.ndarray:
        """|x|^((1 - theta) q), the x row of the cell function's q-th power."""
        return self.x_power**self.q

    def reach(self, exponents: np.ndarray, top: float) -> float:
        """A bound on the largest exact peak of the sampled block
        10^exponents of a certified call, lifted by e^`slack`: its largest
        L^q mean when that lies below `top`, else its largest cell-sum peak
        (class docstring)."""
        p, q, th = self.p, self.q, self.th
        work = np.multiply(exponents, q * _LN10)
        np.exp(work, out=work)  # 10^(q e)
        # z^(theta q) = 10^(theta q e) s^-theta, s the row's sum_I 10^(q e_I) |I|
        scales = (work @ self.m) ** (-th / q) * math.exp(self.slack)
        np.exp(np.multiply(exponents, th * q * _LN10, out=work), out=work)
        bound = ((work @ (self._x_q * self.m)) ** (1.0 / q) * scales).max()
        if bound < top:
            return bound
        work *= self._x_q  # F^q, but for s^-theta
        sums, lengths = _cells(self.grid, work)
        peaks = (_cell_sum(sums ** (p / q), lengths) / self.leaves) ** (1.0 / p)
        return (peaks * scales).max()


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
    `haar._batch_rows` rows on the grid that measure keeps for u
    (`haar._KeptRows._grid_for`), drawn block by block from one
    stream, so memory stays bounded however large `n_samples` is. y runs
    exactly first. When a block holds `_SCREEN_MIN_ENTRIES` sampled entries
    or more and the call is certified (`_Chain.certified`: the exact run of
    no sampled block would fail a check or raise), that block runs exactly
    only if its reach, a bound on its largest peak, meets the largest exact
    peak so far (`_Chain.reach`); every other block runs exactly. So the
    value, every check and every exception are those of running each block
    exactly. Errors keep their order: OverflowError before the r-th mean,
    comparison, unit-ball and cap VerificationErrors, whichever block each
    failure came from.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    if not _matches(f, u):
        raise ValueError("factorization does not match the expansion")
    kept = f._built_from(u)  # the measure `factorize` built f from
    measure = weights_tl(u, f.p, f.q) if kept is None else kept[0]
    grid = measure._grid_for(u)
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

    x_vec = f._field_rows("x", u)
    chain = _Chain(grid, u, x_vec, y_vec, w_vec, (p, q, th, r))
    step = min(_batch_rows(grid), n_samples + 1)
    n_support = len(u.support)

    # candidate 0 is y, then the samples, drawn block by block from one
    # stream; each check's failure is kept until every block is drawn
    rng = np.random.default_rng(seed)
    failed = np.zeros(3, dtype=bool)  # unequal, uncompared, unbounded
    peaks = []

    def run(exponents: np.ndarray | None, with_y: bool) -> None:
        flags, peak = chain.exact(exponents, with_y)
        failed[:] |= flags
        peaks.append(peak)

    for lo in range(0, n_samples + 1, step):
        with_y = lo == 0
        rows = min(step, n_samples + 1 - lo) - with_y
        exponents = rng.uniform(-3.0, 3.0, size=(rows, n_support)) if rows else None
        if not (rows and rows * n_support >= _SCREEN_MIN_ENTRIES and chain.certified):
            run(exponents, with_y)
            continue
        if with_y:
            run(None, True)  # y runs alone, first
        top = np.max(peaks)
        if not chain.reach(exponents, top) < top:  # a NaN bound settles nothing
            run(exponents, False)

    unequal, uncompared, unbounded = failed
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
