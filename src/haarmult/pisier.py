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
bit), but one: `x0_norm_estimate` takes |x|^(1 - theta) with `**`, as it
does the powers of its sampled candidates, since `_pow` there could move
the last bits of `max_lattice_candidate` and of the pinned `verify`
output. The per-row tolerance tests are `_isclose`, `math.isclose` on
arrays.

`x0_norm_estimate` runs its candidates in blocks of `haar._batch_rows`
rows, drawn one block after another from the same generator, so its memory
does not grow with the sample count. A check that fails in any block is
raised after the last block, in the order of the unblocked chain. A block
of `_SCREEN_MIN_ENTRIES` sampled entries or more is first screened in log
space (`_Chain`): one exp in place of each power, and a derived bound on
the distance to the exact values. A block that passes would fail no check
and raise nothing. Its largest peak is then bounded in two steps: by its
largest L^q mean (one matrix-vector product, as the L^p mean is no larger
for p < q), and, only when that reach meets the largest exact peak so far,
by its screened cell sums. It runs exactly only if the cell-sum reach meets
the largest exact peak, redrawn from the generator state saved before its
draw. y and every other block run exactly. So the value, every check and
every exception are those of running each block exactly.
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
# `x0_norm_estimate` is screened before it runs exactly; smaller blocks,
# verify's one block of 20 samples over about 60 rows among them, run exactly
# at once, as the screen's fixed cost outweighs its saving there (the timing
# table is in CHANGES.md)
_SCREEN_MIN_ENTRIES = 1 << 13
_LN10 = math.log(10.0)
# the unit roundoff, and the error of one numpy exp, log or power in units
# of it: 8 ulps, above what libm and numpy's SIMD loops claim
_UNIT = 2.0**-53
_FUNCTION_ERROR = 16.0
# the largest |ln| of any value a screened block may make the exact chain
# hold: e^600 times a cell length up to 2^61 stays finite, and e^-600 times
# 2^-61 stays a normal float
_SCREEN_LOG_RANGE = 600.0


class _Chain:
    """The candidate blocks of one `x0_norm_estimate` call, run two ways.

    `exact` is the chain as it is computed and certified: it raises the
    OverflowError of a sampled q-norm, and gives each check's failure and
    the block's largest peak. `screen` computes the same values in log
    space, with exp in place of every power of an entry: ln z = L e -
    ln(sum_j 10^(q e_j) |I_j|)/q with L = ln 10, then ||z||_q^q and the r-th
    and q-th weighted means from exp(q ln z) and exp(q theta ln z) against
    row vectors that carry the y and w factors. It bounds the distance in
    ln between each screened value and the exact one by `delta`, from the
    largest |ln| the block holds; it passes a block only when x, y and w
    are in range, every value is finite and inside e^+-600, and every check
    passes by 10 times the bound, so the exact run of the block would fail
    no check and raise nothing.

    A passed block's largest peak is bounded in two steps. `screen` returns
    its L^q reach: the largest L^q mean of a candidate's cell function,
    (sum_I |x_I|^((1 - theta) q) |z_I|^(theta q) |I|)^(1/q), one
    matrix-vector product over the work block, times e^(10 delta). The
    peak is the L^p mean, no larger for p < q. `cell_reach` then gives the
    block's largest screened peak itself, from the cell sums of the work
    block `screen` kept, times e^(10 delta): the tighter bound, taken only
    for a block whose L^q reach meets the largest exact peak. Either reach
    lies above every exact peak of the block.
    """

    def __init__(
        self,
        grid: _Grid,
        u: HaarExpansion,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        exponents: tuple[float, float, float, float],
        step: int,
    ) -> None:
        self.grid, self.x, self.y, self.w, self.step = grid, x, y, w, step
        self.p, self.q, self.th, self.r = exponents
        self.x_power = np.abs(x) ** (1.0 - self.th)
        self.m = np.ldexp(1.0, -u.levels)
        self.max_level = u.max_level
        self.leaves = 1 << u.max_level
        self._passed: tuple[np.ndarray, float] | None = None  # `screen`'s last pass

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
    def _screen_rows(self):
        """(gain, xy_log, the rows w y^(-q theta), w y^(-r theta) and
        |x|^(q(1 - theta)), two work blocks), or None when x, y or w keep
        every block exact: gain is the largest exponent any ln is multiplied
        by, and xy_log bounds |ln x| + |ln y| + 3 L."""
        q, th, r = self.q, self.th, self.r
        x, y, w = np.abs(self.x), self.y, self.w
        if not (
            np.all((x > 0.0) & (x < math.inf))
            and np.all((y > 0.0) & (y < math.inf))
            and np.all((w >= 0.0) & (w <= 1.0))
        ):
            return None
        ln_x, ln_y = np.log(x), np.log(y)
        gain = float(np.max(np.abs([1.0, q, q * th, r * th, q * (1.0 - th)])))
        xy_log = float(np.abs(ln_x).max() + np.abs(ln_y).max()) + 3.0 * _LN10
        if not gain * xy_log <= _SCREEN_LOG_RANGE:
            return None
        w_q = w * np.exp(-(q * th) * ln_y)
        w_r = w * np.exp(-(r * th) * ln_y)
        x_q = np.exp((q * (1.0 - th)) * ln_x)
        return gain, xy_log, w_q, w_r, x_q, np.empty((2, self.step, len(y)))

    def screen(self, exponents: np.ndarray) -> float | None:
        """The block's L^q reach (class docstring), or None when it must run
        exactly. A block that passes keeps its work block and delta for
        `cell_reach`."""
        if self._screen_rows is None:
            return None
        gain, xy_log, w_q, w_r, x_q, blocks = self._screen_rows
        q, th, r = self.q, self.th, self.r
        k = len(exponents)
        work, ln_z = blocks[0, :k], blocks[1, :k]
        with np.errstate(all="ignore"):
            np.exp(np.multiply(exponents, q * _LN10, out=work), out=work)
            np.multiply(exponents, _LN10, out=ln_z)
            ln_z -= (np.log(work @ self.m) / q)[:, None]
            z_log = max(-ln_z.min(), ln_z.max())
            span = gain * (z_log + xy_log)
            if not span <= _SCREEN_LOG_RANGE:
                return None
            np.exp(np.multiply(ln_z, q, out=work), out=work)  # z^q, for z^(r theta)
            ln_norms, ln_r = np.log(work @ self.m), np.log(work @ w_r)
            np.exp(np.multiply(ln_z, q * th, out=work), out=work)
            ln_q = np.log(work @ w_q)
            work *= x_q  # (|x|^(1 - theta) z^theta)^q
            ln_top = np.log(work @ self.m).max() / q  # the largest L^q mean, in ln
        # delta bounds |ln exact - ln screened| of each compared value, the
        # rounding of both sides together, with u the unit roundoff, c =
        # `_FUNCTION_ERROR` and a the largest |ln| before any exponent (of z,
        # x, y, 10^e and a sum over q): ln z differs by at most (c + 10) u a +
        # (5c + 1) u + two support sums; a power multiplies that by at most
        # gain; the powers, the x and y rows, the logs and the roots add at
        # most (2c + 4) gain u a + (2c + 1) gain u + 11c u, two support sums
        # and four cell sums; and z^q standing for z^(r theta) adds
        # |r theta - q| |ln z|. 6c (gain + 1) u (a + 3) covers every u term.
        # So e^(10 delta) lifts either reach above each exact peak: an exact
        # peak is the cell function's L^p mean with its rounding, four cell
        # sums among it, which delta covers; the cell-sum reach screens that
        # same mean, and the L^q reach the L^q mean, no smaller on [0, 1)
        # for p < q (the power-mean inequality), from one support sum, whose
        # rounding delta covers too
        n, levels = len(self.y), self.max_level + 1
        a = z_log + xy_log + math.log(n) + levels * math.log(2.0)
        support_sum = 1.01 * (n + 2) * _UNIT  # gamma_k <= 1.01 k u for a sum of k
        cell_sum = 1.01 * (len(self.grid.owner) + levels + 2) * _UNIT
        delta = (
            (gain + 1.0) * (6.0 * _FUNCTION_ERROR * _UNIT * (a + 3.0) + 2.0 * support_sum)
            + 4.0 * cell_sum
            + abs(r * th - q) * z_log
        )
        slack = math.log1p(_CHAIN_RTOL) - 20.0 * delta
        lowest = np.min([ln_norms.min(), ln_r.min(), ln_q.min()])  # NaN stays
        if not (
            lowest >= -_SCREEN_LOG_RANGE
            and np.all(np.abs(ln_r - ln_norms) <= slack)
            and np.all(ln_q / q - ln_r / r <= slack)
            and np.all(ln_q / q <= slack + 10.0 * delta)
            and -math.inf < ln_top < math.inf
        ):
            return None
        self._passed = work, delta
        return math.exp(ln_top + 10.0 * delta)

    def cell_reach(self) -> float | None:
        """The cell-sum reach of the block `screen` passed last, from the
        work block it kept: the largest screened peak times e^(10 delta), or
        None, and the block runs exactly, when that peak is not finite and
        positive."""
        work, delta = self._passed
        p, q = self.p, self.q
        with np.errstate(all="ignore"):
            sums, lengths = _cells(self.grid, work)
            top = ((_cell_sum(sums ** (p / q), lengths) / self.leaves) ** (1.0 / p)).max()
        if not 0.0 < top < math.inf:
            return None
        return top * math.exp(10.0 * delta)


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
    stream, so memory stays bounded however large `n_samples` is. A block
    of sampled candidates large enough is screened in log space first. A
    block that passes has its largest peak bounded by its largest L^q mean,
    and, only when that bound meets the largest exact peak so far, by its
    cell sums; it runs exactly only if that bound too meets the maximum
    (`_Chain`), so it changes no value, check or exception. Errors keep
    their order: OverflowError before the r-th mean, comparison, unit-ball
    and cap VerificationErrors, whichever block each failure came from.
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
    step = min(_batch_rows(grid), n_samples + 1)  # the screen's work blocks are this size
    chain = _Chain(grid, u, x_vec, y_vec, w_vec, (p, q, th, r), step)
    n_support = len(u.support)

    # candidate 0 is y, then the samples, drawn block by block from one
    # stream; each check's failure is kept until every block is drawn. A
    # screened block (`_Chain`) whose L^q reach meets the largest exact peak
    # so far takes its cell-sum reach; if that meets it too, the block keeps
    # its generator state, and runs exactly after the loop if its reach
    # still meets the largest peak then
    rng = np.random.default_rng(seed)
    failed = np.zeros(3, dtype=bool)  # unequal, uncompared, unbounded
    peaks, contenders = [], []

    def run(exponents: np.ndarray | None, with_y: bool) -> None:
        flags, peak = chain.exact(exponents, with_y)
        failed[:] |= flags
        peaks.append(peak)

    for lo in range(0, n_samples + 1, chain.step):
        with_y = lo == 0
        rows = min(chain.step, n_samples + 1 - lo) - with_y
        screens = rows and rows * n_support >= _SCREEN_MIN_ENTRIES
        state = rng.bit_generator.state if screens else None
        exponents = rng.uniform(-3.0, 3.0, size=(rows, n_support)) if rows else None
        reach = None if state is None else chain.screen(exponents)
        if reach is None:
            run(exponents, with_y)
        elif with_y:
            run(None, True)  # y, in the first block, runs alone
        if reach is not None and reach >= np.max(peaks):  # never for a NaN peak
            reach = chain.cell_reach()
            if reach is None:
                run(exponents, False)
            elif reach >= np.max(peaks):
                contenders.append((state, rows, reach))
    for state, rows, reach in contenders:
        if reach >= np.max(peaks):
            rng.bit_generator.state = state
            run(rng.uniform(-3.0, 3.0, size=(rows, n_support)), False)

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
