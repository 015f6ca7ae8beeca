"""Finite Haar expansions and their square-function norms.

An expansion is a finite formal sum  u = sum_I x_I h_I  over dyadic intervals,
with coefficient vectors x_I in R^d (d = 1 is the scalar case) and the
L-infinity normalised Haar functions h_I. All square functions are step
functions that are constant on the 2^N leaves of the finest level N, and
also on the atoms cut out by the endpoints of the support (at most 2n + 1 of
them for n support intervals), so every norm integral below is a finite sum
with no quadrature error.

Each expansion stores its support once, in support order ((level, position)
sorted), as the `support` tuple and as read-only arrays: `levels`,
`positions`, `values` and `squares`. The hot paths (cell sums, multipliers,
the stopping time, the block statistics, the weights, the multiplier check)
read those arrays. `coeffs` is no second copy: each read gives a read-only
view over `support` and `values` (`_CoeffView`), whose length costs
nothing, whose lookups bisect the sorted `support` tuple and whose entries
are built per read, so an expansion keeps no dict and no per-row tuple.
Equality compares the support tuples and the value arrays, and a copy or a
pickle passes the constructor a plain dict of floats (lists of floats at
d > 1). The constructor checks a mapping in one loop on its Python
objects: the key types first, then per interval in support order its
level, its value and its length, so a level past max_level is refused
before anything becomes int64; then `np.fromiter` builds the arrays in one
pass each. A random draw (`cli._gen_with_rng`) hands its rows, already in
support order, to `HaarExpansion._from_rows`.

Every sum sum_I v_I 1_I on a hot path goes through `_cells`, on the grid
of the support (`_Grid`), which each public call builds at most once from
(max_level, levels, positions) and passes down as an argument. No grid is
kept on an expansion, in the module or in a cache; a constructor's result
keeps the grid it was built on (`_KeptRows`), and a verification or a
multiplier check on u of its support and max level sums on it
(`_KeptRows._grid_for`). A grid is read-only, as one may be shared. It
holds the level bounds of the support rows, their parent table and each
cell's owner, the deepest support row containing it, and picks the cells
(`_on_atoms`): the atoms when (2n + 1)(N + 1) + 256 < 2^N, keeping only
each atom's length (the atoms' left ends are its prefix sums from 0), else
the 2^N leaves, whose parents and owners one level-by-level `_paint` gives.
On both `_cells` is a tree prefix sum, coarsest level first: each row's
running sum is its parent's plus its own value, and each cell reads its
owner's, in K (n + cells) work for K batch rows. On the atoms
`atomic._majority_cover` reads each cell's owner and length, to give each
support row the length of the cells it owns; every other caller just sums
over the cells. The block statistics of a decomposition run `_tree_sums`
on the same grid with each block's own parent table
(`atomic._block_stats`).
A cell adds its intervals coarsest first, starting from 0.0, so its value
is that of the leaf sums at its first leaf, and norms are length-weighted
sums over the cells, so on the atom grid they agree with the leaf sums to
rounding. Leaf positions, heap codes and prefix counts are int64, so the
`HaarExpansion` constructor refuses a max level above 61 and no array is
built for one. No function returns a value per leaf: every tree over a
support is a `_Grid`'s, and `_paint` runs only inside `_Grid`.

One core gives every norm of the square function (q None) and of the
q-variation: `_norm(u, p, q, grid)` for u itself (`hp_norm`, `tl_norm`,
the verification, the multiplier check, the lattice estimate) and
`_product_norms` for many products phi_k * u of one expansion, for the
multiplier checks, in batches of `_batch_rows(grid)` rows. Both take the
terms by `_terms` (the squares, or |x_I|^q by `_pow`) and the p-th root of
each leaf mean by `_root`, so a product's norm is bit for bit that of its
expansion.

A mapping keyed by intervals (a multiplier phi, summing weights, lattice
factors) is read at the support rows by `_support_rows`: a plain dict keyed
by the support in support order in one pass over its values, with no key
hashed (`_support_order`), and any other mapping with one `get` per row
(`_rows_by_key`). The constructors' results (a decomposition, a measure,
a factorization) share one storage, `_KeptRows`, whose docstring states
what a result keeps: its rows, its grid and its source. Every read of a
kept field at the support rows and every check of its keys goes through
that base, so `_support_order` is called in this module only.

Every sum over whole support rows (`l2_norm`, the weights' totals, the
weighted sums of the multiplier check, `pisier._fqq_norm`) is `_fsum_rows`:
exactly rounded, so bit for bit `math.fsum` of the row, which it calls for
rows shorter than `_FSUM_MIN_ROW` and for non-finite or huge entries. Longer
rows are binned by exponent and summed in integers, with no Python float
per entry.

Every power of support rows goes through `_pow`, which is `np.float_power`:
numpy's generic loop for it calls libm `pow` once per float64 element, with
no SIMD dispatch, so each power is bit for bit Python's float `pow`.
numpy's `**` and `np.power` are not: on an AVX-512 host they dispatch to
SVML and differ from libm in the last bit for some inputs, even at
exponent 2. numpy's `**` is used only on cell sums (`_norm_means`), on
the sampled candidates of `pisier.x0_norm_estimate` and, there, on the
per-row powers of `pisier._Chain`: |x|^(1 - theta) in its chain, where
`_pow` would change the last bits of the outputs (of
`max_lattice_candidate` and the pinned `verify` digests) and runs about 5x
slower than the SIMD loop, and y^q and |x|^((1 - theta) q) in its
certificate and its reach, whose derived rounding margins cover `**`.
"""

from __future__ import annotations

import errno
import math
import operator
import os
from bisect import bisect_left
from collections.abc import Mapping
from itertools import chain, compress, repeat
from numbers import Number
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dyadic import DyadicInterval, _Immutable, _nearest_ancestors

CoeffMap = Mapping[DyadicInterval, "float | Iterable[float]"]


def _square_length(vector: list[float]) -> float:
    """Squared Euclidean length of a vector, inf where the sum overflows."""
    try:
        return math.fsum(c * c for c in vector)
    except OverflowError:
        return math.inf


def _squares(values: np.ndarray) -> np.ndarray:
    """Squared Euclidean lengths along the last axis, bit for bit
    `_square_length`: at d = 1 and d = 2 in numpy (the sum a*a + b*b of the
    two rounded squares rounds their exact sum once, as `math.fsum` does,
    and is inf where `math.fsum` overflows), row by row at d >= 3."""
    d = values.shape[-1]
    if d > 2:
        flat = values.reshape(-1, d).tolist()
        return np.array(list(map(_square_length, flat)), dtype=float).reshape(values.shape[:-1])
    with np.errstate(over="ignore"):
        squares = values[..., 0] * values[..., 0]
        if d == 2:
            squares += values[..., 1] * values[..., 1]
    return squares


# The deepest max level of an expansion: leaf positions up to 2^61, heap
# codes 2^level - 1 + position and twice a prefix count of leaves all stay
# below 2^63.
_MAX_LEVEL = 61


# text a float conversion would parse, or iterate into characters or bytes
_TEXT = (str, bytes, bytearray)
# values that are one entry, not a sequence of entries: text, and any number
# (a Fraction or a Decimal too; a complex one is refused)
_ONE_ENTRY = (*_TEXT, Number)
# the entry type that is real as it is, so `_unreal` need not read it
_FLOAT = frozenset((float,))


def _unreal(value: object) -> str:
    """What a coefficient entry is when it is not a real number, else "":
    "text" for a str, bytes or bytearray (numpy string scalars included) or
    a numpy string array, "complex" for a complex number or a numpy complex
    scalar or array, whose imaginary part a float conversion would drop. A
    0-d array is read as its item."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    dtype = getattr(value, "dtype", None)
    kind = dtype.kind if isinstance(dtype, np.dtype) else ""
    if isinstance(value, _TEXT) or kind in ("S", "U"):
        return "text"
    if isinstance(value, complex) or kind == "c":
        return "complex"
    return ""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class HaarExpansion(_Immutable):
    """Sparse Haar coefficients up to a fixed maximum level.

    Zero coefficient vectors are dropped on construction, so the key set of
    ``coeffs`` equals the Haar support. Keys must be `DyadicInterval`s.
    ``max_level`` and ``dimension`` are integers (`operator.index`: a
    Python or numpy integer, kept as int), else TypeError before any array
    is built. Values are tuples of floats of length ``dimension`` and must
    be finite, and an integer past the float range is not; a number given
    as a value (any `numbers.Number`: a Python or numpy scalar, a Fraction,
    a Decimal) or any 0-d array is the vector of length 1. Text is refused, never
    parsed: a key that is not an interval, and a str, bytes or numpy
    string value or entry, raise TypeError naming it; so does a complex
    value or entry, whose imaginary part a float conversion would drop.

    The support is kept once, row j for the j-th interval of ``support``: the
    ``support`` tuple and read-only arrays ``levels`` and ``positions``
    (int64), ``values`` of shape (n, dimension), and ``squares``, the squared
    Euclidean lengths, bit for bit `math.fsum` of the squared entries (inf
    where that overflows; `_squares`). ``coeffs`` is a read-only mapping
    view over ``support`` and ``values``, built on each read, so nothing
    else is kept.
    """

    __slots__ = ("max_level", "dimension", "support", "levels", "positions", "values", "squares")

    def __init__(self, max_level: int, dimension: int, coeffs: CoeffMap) -> None:
        try:  # numpy integers pass, stored as int; floats and text do not
            max_level, dimension = operator.index(max_level), operator.index(dimension)
        except TypeError:
            message = f"max_level and dimension must be integers, got {max_level!r}, {dimension!r}"
            raise TypeError(message) from None
        if max_level < 0:
            raise ValueError(f"max_level must be nonnegative, got {max_level}")
        if max_level > _MAX_LEVEL:
            raise ValueError(
                f"max_level {max_level} exceeds {_MAX_LEVEL}, the deepest level "
                f"whose leaf arithmetic fits in int64"
            )
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        for key in coeffs:
            if not isinstance(key, DyadicInterval):
                raise TypeError(f"coefficient key {key!r} is not a DyadicInterval")
        intervals = sorted(coeffs)
        rows = []
        for interval in intervals:
            if interval.level > max_level:
                raise ValueError(
                    f"interval {interval} exceeds max level {max_level}"
                )
            raw = coeffs[interval]
            if isinstance(raw, float):
                vector = (float(raw),)
            else:
                # a 0-d array, or text or a complex number to refuse below, is one entry
                single = isinstance(raw, _ONE_ENTRY) or getattr(raw, "ndim", None) == 0
                entries = (raw,) if single else tuple(raw)
                # Python floats, the entries `coeffs` and a loaded file give, are real
                real = _FLOAT.issuperset(map(type, entries))
                refused = "" if real else next(filter(None, map(_unreal, entries)), "")
                if refused:
                    wanted = "numbers" if refused == "text" else "real numbers"
                    raise TypeError(
                        f"coefficient at {interval} is {refused}, {raw!r}, not {wanted}"
                    )
                try:
                    vector = tuple(map(float, entries))
                except OverflowError:  # an integer past the float range: not finite
                    vector = (math.inf,) * len(entries)
            if len(vector) != dimension:
                raise ValueError(
                    f"coefficient at {interval} has length {len(vector)}, "
                    f"expected {dimension}"
                )
            rows.append(vector)
        # every level is at most max_level, so each key fits in int64
        n = len(intervals)
        keys = np.fromiter(chain.from_iterable(intervals), np.int64, 2 * n)
        levels, positions = keys[0::2].copy(), keys[1::2].copy()
        values = np.fromiter(chain.from_iterable(rows), float, n * dimension).reshape(n, dimension)
        self._store(max_level, dimension, intervals, levels, positions, values)

    @classmethod
    def _from_rows(
        cls,
        max_level: int,
        dimension: int,
        intervals: Sequence[DyadicInterval],
        levels: np.ndarray,
        positions: np.ndarray,
        values: np.ndarray,
    ) -> "HaarExpansion":
        """The validating core for rows already in support order."""
        u = object.__new__(cls)
        u._store(max_level, dimension, intervals, levels, positions, values)
        return u

    def _store(
        self,
        max_level: int,
        dimension: int,
        intervals: Sequence[DyadicInterval],
        levels: np.ndarray,
        positions: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Reject non-finite rows, drop zero rows, and set every attribute."""
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            bad = intervals[int(np.argmin(finite))]
            raise ValueError(f"coefficient at {bad} is not finite")
        nonzero = values.any(axis=1)
        if not nonzero.all():
            intervals = list(compress(intervals, nonzero.tolist()))
            levels, positions, values = (
                levels[nonzero], positions[nonzero], values[nonzero]
            )
        squares = _squares(values)
        set_attr = object.__setattr__
        set_attr(self, "max_level", max_level)
        set_attr(self, "dimension", dimension)
        set_attr(self, "support", tuple(intervals))
        set_attr(self, "levels", _read_only(levels))
        set_attr(self, "positions", _read_only(positions))
        set_attr(self, "values", _read_only(values))
        set_attr(self, "squares", _read_only(squares))

    def __reduce__(self) -> tuple:
        """Pickle and copy through the validating constructor, from a plain
        dict of Python floats at d = 1 (its cheapest input) and of lists of
        floats otherwise."""
        rows = self.values[:, 0].tolist() if self.dimension == 1 else self.values.tolist()
        return HaarExpansion, (self.max_level, self.dimension, dict(zip(self.support, rows)))

    @classmethod
    def scalar(cls, max_level: int, coeffs: CoeffMap) -> "HaarExpansion":
        return cls(max_level, 1, coeffs)

    @property
    def coeffs(self) -> Mapping[DyadicInterval, tuple[float, ...]]:
        """Interval -> coefficient tuple in support order, a read-only view."""
        return _CoeffView(self.support, self.values)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HaarExpansion):
            return NotImplemented
        return (
            self.max_level == other.max_level
            and self.dimension == other.dimension
            and self.support == other.support
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"HaarExpansion(max_level={self.max_level}, "
            f"dimension={self.dimension}, support={len(self.support)})"
        )


class _CoeffView(Mapping):
    """`HaarExpansion.coeffs`: interval -> tuple of Python floats over the
    expansion's `support` and `values`, in support order. It has no setter
    and keeps no entry: `len` is the support's, `[]` (and so `in` and
    `get`) bisects the sorted support, and each read builds its tuple. A
    key that does not compare with the intervals is in no row."""

    __slots__ = ("_support", "_values")

    def __init__(self, support: tuple[DyadicInterval, ...], values: np.ndarray) -> None:
        self._support, self._values = support, values

    def __len__(self) -> int:
        return len(self._support)

    def __iter__(self) -> Iterator[DyadicInterval]:
        return iter(self._support)

    def __getitem__(self, key: object) -> tuple[float, ...]:
        support = self._support
        try:
            j = bisect_left(support, key)
        except TypeError:  # a key that does not compare with the intervals
            raise KeyError(key) from None
        if j == len(support) or support[j] != key:
            raise KeyError(key)
        return tuple(self._values[j].tolist())


def _pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent elementwise, bit for bit Python's float `pow` on
    each element: `np.float_power` calls libm `pow` once per element (see
    the module docstring). Raises as `pow` does, at the first failing
    element in C order: OverflowError where a finite base gives inf (for a
    finite exponent), ZeroDivisionError for 0.0 to a negative power. Bases
    are nonnegative or NaN: a negative base to a non-integer power gives
    NaN where `pow` gives a complex number. No RuntimeWarning is issued."""
    values = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        powers = np.float_power(values, exponent)
    failed = np.isinf(powers) & np.isfinite(values)
    if math.isfinite(exponent) and failed.any():
        if values.flat[np.argmax(failed)] == 0.0:
            raise ZeroDivisionError("0.0 cannot be raised to a negative power")
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return powers


def _check_q(q: float) -> None:
    """The range of a q-variation exponent, 0 < q < inf."""
    if not q > 0:  # NaN included
        raise ValueError(f"q must be positive, got {q}")
    if q == math.inf:
        raise ValueError(f"q must be finite, got {q}")


class _Grid:
    """The cell grid of one support, built from (max_level, levels,
    positions) and passed down to every sum over that support. `bounds` is
    a tuple and every array is read-only, so a result that keeps its grid
    (`_KeptRows._grid_for`) shares it with its copies and with every check
    (`_freeze`).

    `bounds[l]:bounds[l + 1]` are the support rows of level l, l = 0 .. N,
    `owner[c]` the deepest support row containing cell c and `parent` each
    row's nearest support ancestor, -1 for none. On the leaf grid, where
    `lengths` is None, `_paint` gives both. On the atom grid (`_on_atoms`)
    `parent` is `dyadic._nearest_ancestors` and `lengths` holds each atom's
    length in leaves: the atoms are cut at every support endpoint, 0 and
    2^N, and their left ends are the prefix sums of `lengths` from 0.
    """

    __slots__ = ("max_level", "bounds", "lengths", "owner", "parent")

    def __init__(self, max_level: int, levels: np.ndarray, positions: np.ndarray) -> None:
        self.max_level = max_level
        self.bounds = tuple(np.searchsorted(levels, np.arange(max_level + 2)).tolist())
        self.lengths = None
        n = len(levels)
        if not _on_atoms(n, max_level):
            self.owner, self.parent = _paint(positions, self.bounds)
            self._freeze()
            return
        self.parent = parent = _nearest_ancestors(levels, positions)
        shift = max_level - levels
        starts = positions << shift
        ends = starts + (np.int64(1) << shift)
        edges, index = np.unique(
            np.concatenate(([0, 1 << max_level], starts, ends)), return_inverse=True
        )
        self.lengths = np.diff(edges)
        # Each atom starts at an edge. The rows starting at one edge are
        # nested, each the parent of the next finer one, and the atom there
        # lies in the finest, whose start no child shares. So are the rows
        # ending at one edge; where none starts, a row containing the atom
        # contains the coarsest of them, whose parent ends elsewhere, so the
        # atom lies in that row's parent, or in no row. Each edge gets one
        # row of each kind, and the finest starting row wins.
        child = np.flatnonzero(parent >= 0)
        up = parent[child]
        finest = np.ones(n, dtype=bool)
        finest[up[starts[up] == starts[child]]] = False
        coarsest = np.ones(n, dtype=bool)
        coarsest[child[ends[up] == ends[child]]] = False
        at = np.full(len(edges), -1)
        at[index[n + 2 :][coarsest]] = parent[coarsest]
        at[index[2 : n + 2][finest]] = np.flatnonzero(finest)
        self.owner = at[:-1]
        self._freeze()

    def _freeze(self) -> None:
        """Make the grid's arrays read-only: a result keeps the grid and
        shares it with its copies and every check."""
        for array in (self.owner, self.parent, self.lengths):
            if array is not None:  # the leaf grid has no lengths
                _read_only(array)

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        """A deep copy or an unpickled grid is read-only too."""
        for name, value in state[1].items():
            setattr(self, name, value)
        self._freeze()


def _paint(positions: np.ndarray, bounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(the deepest row containing each leaf, each row's nearest ancestor),
    -1 for none, on the 2^N leaves of rows sorted by level: row j of level l
    (rows `bounds[l]:bounds[l + 1]`, l = 0 .. N) is node positions[j] of its
    level. Level by level, each row reads its parent in `own`, the deepest
    row over each node so far, and paints itself there; then `own` doubles
    onto the next level."""
    parent = np.empty(len(positions), dtype=np.int64)
    own = np.full(1, -1)
    for level, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if level:
            own = np.repeat(own, 2)
        if lo < hi:
            parent[lo:hi] = own[positions[lo:hi]]
            own[positions[lo:hi]] = np.arange(lo, hi)
    return own, parent


def _tree_sums(
    bounds: Sequence[int], owner: np.ndarray, parent: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """sum_j values[..., j] 1_{I_j} at each cell's owner row (`_paint`), by
    a tree prefix sum, coarsest level first: a row's running sum is its
    parent's plus its value, from a trailing 0.0 slot that index -1 reads,
    so a cell adds its intervals coarsest first, from 0.0. The gather keeps
    the result C-contiguous, so `np.sum` over one batch row adds in the
    order of that row alone. Leading axes of `values` are batch axes."""
    values = np.asarray(values, dtype=float)
    acc = np.zeros(values.shape[:-1] + (len(parent) + 1,))
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            above = np.take(acc, parent[lo:hi], axis=-1)
            np.add(above, values[..., lo:hi], out=acc[..., lo:hi])
    return np.take(acc, owner, axis=-1)


def _support_grid(u: HaarExpansion) -> _Grid:
    """The cell grid of u's support."""
    return _Grid(u.max_level, u.levels, u.positions)


def _cells(grid: _Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """sum_j values[..., j] 1_{I_j} over the support rows I_j of the grid,
    on its cells: (the value on each cell, `_tree_sums`, and each cell's
    length in leaves as int64, None on the leaf grid), cells in
    left-to-right order. Leading axes of `values` are batch axes."""
    return _tree_sums(grid.bounds, grid.owner, grid.parent, values), grid.lengths


def _on_atoms(n: int, max_level: int) -> bool:
    """Whether `_cells` sums n intervals at max level N on the atoms:
    (2n + 1)(N + 1) + 256 < 2^N; the 256 stands for the atoms' fixed cost."""
    return (2 * n + 1) * (max_level + 1) + 256 < 1 << max_level


def _cell_sum(terms: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Sum over the leaves of a function with the given cell values, along
    the last axis: each cell counts with its length (`_cells`), and on the
    leaf grid this is the plain `np.sum`."""
    return np.sum(terms if lengths is None else lengths * terms, axis=-1)


def _check_exponents(p: float, q: float | None = None) -> None:
    """The exponent ranges of `hp_norm` (q None), 0 < p <= 2, and of
    `tl_norm`, 0 < p <= q < inf (q = inf, the sup, is not computed)."""
    if q is None and not 0 < p <= 2:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    if q is not None and not 0 < p <= q:
        raise ValueError(f"need 0 < p <= q, got p={p}, q={q}")
    if q is not None:
        _check_q(q)


def _norm_means(
    grid: _Grid, terms: np.ndarray, p: float, q: float | None = None
) -> np.ndarray:
    """The leaf mean of F^p per batch row of `terms`, F = (sum_j terms[..., j]
    1_{I_j})^(1/2) for q None (terms are the squares |x_I|^2) and ^(1/q)
    otherwise (terms are the powers |x_I|^q), summed over the cells of
    `_cells` on the grid of the rows I_j."""
    sums, lengths = _cells(grid, terms)
    powers = sums ** (p / 2.0) if q is None else (sums ** (1.0 / q)) ** p
    return _cell_sum(powers, lengths) / (1 << grid.max_level)


def hp_norm(u: HaarExpansion, p: float) -> float:
    """L^p norm of the square function, 0 < p <= 2, summed over the cells of
    `_cells`; OverflowError if the norm of a nonzero expansion comes out 0 or
    inf (coefficients are not rescaled)."""
    return _norm(u, p, None, _support_grid(u))


def tl_norm(u: HaarExpansion, p: float, q: float) -> float:
    """L^p norm of the q-variation, 0 < p <= q < infinity; OverflowError
    like `hp_norm`."""
    if q is None:  # `_norm`'s square function, which is `hp_norm`
        raise TypeError("tl_norm needs a number q, got None")
    return _norm(u, p, q, _support_grid(u))


def _norm(u: HaarExpansion, p: float, q: float | None, grid: _Grid) -> float:
    """The norm of u on the grid of its support: `hp_norm` for q None, else
    `tl_norm` at q (scalar u only). `_product_norms` shares its two rules:
    the terms (`_terms`) and the root of the mean (`_root`)."""
    _check_exponents(p, q)
    if q is not None and u.dimension != 1:
        raise ValueError("q-variation is defined for scalar expansions only")
    terms = u.squares if q is None else _terms(u.values, q)
    return _root(_norm_means(grid, terms, p, q), p, not u.is_zero)


def _terms(values: np.ndarray, q: float | None) -> np.ndarray:
    """The terms of a norm, per coefficient row along the last axis of
    `values`: the squares |x_I|^2 (`_squares`) for q None, else |x_I|^q of
    the scalar entries by `_pow`, Python's float pow per element; a power
    past the float range raises the OverflowError of an inf norm."""
    if q is None:
        return _squares(values)
    try:
        return _pow(np.abs(values[..., 0]), q)
    except OverflowError:  # an inf norm, which `_in_float_range` refuses
        return _in_float_range(math.inf, True)


def _root(mean: np.floating, p: float, nonzero: bool) -> float:
    """The p-th root of a numpy-scalar leaf mean, taken on the scalar (an
    array `**` may round differently in the last bit); OverflowError where
    the norm of a nonzero expansion leaves the float range."""
    return _in_float_range(float(mean ** (1.0 / p)), nonzero)


def _in_float_range(norm: float, nonzero: bool) -> float:
    if nonzero and not 0.0 < norm < math.inf:
        raise OverflowError(f"norm {norm} of a nonzero u leaves the float range")
    return norm


def convexify(u: HaarExpansion, q: float) -> HaarExpansion:
    """Coefficientwise power |x_I|^(q/2) (`_pow`, Python's float pow per
    element); support is preserved: OverflowError if a power underflows to 0
    or overflows (coefficients are not rescaled)."""
    if u.dimension != 1:
        raise ValueError("convexification is defined for scalar expansions only")
    _check_q(q)
    try:
        powered = _pow(np.abs(u.values[:, 0]), q / 2.0)
        if (powered == 0.0).any():  # an underflow, which would drop its row
            raise OverflowError
    except OverflowError:  # `_pow` raises on overflow, as Python's pow does
        raise OverflowError(f"a power |x_I|^(q/2) at q={q} leaves the float range") from None
    return HaarExpansion._from_rows(
        u.max_level, 1, u.support, u.levels, u.positions, powered[:, None]
    )


def _square_measures(u: HaarExpansion) -> np.ndarray:
    """|x_I|^2 |I| per support row, bit for bit `square * 2.0 ** -level`."""
    return u.squares * np.ldexp(1.0, -u.levels)


def l2_norm(u: HaarExpansion) -> float:
    """(sum_I |x_I|^2 |I|)^(1/2), the H^2 norm computed from coefficients;
    OverflowError like `hp_norm`."""
    return _in_float_range(math.sqrt(_fsum(_square_measures(u))), not u.is_zero)


def _support_order(mapping: Mapping[DyadicInterval, object], u: HaarExpansion) -> bool:
    """Whether `mapping` is a plain dict whose keys are u's support in support
    order. Then its values are u's rows in order and its keys lie in the
    support, and no key is hashed: the tuple comparison runs in C and stops
    at identity for keys that are u's own support objects. A dict subclass
    or any other mapping answers False."""
    support = u.support
    return type(mapping) is dict and len(mapping) == len(support) and tuple(mapping) == support


def _support_rows(mapping: Mapping[DyadicInterval, float], u: HaarExpansion) -> np.ndarray:
    """mapping at each support row of u, in support order, 0.0 where it has
    no entry: one pass over its values when `_support_order(mapping, u)`,
    else `_rows_by_key`."""
    if not _support_order(mapping, u):
        return _rows_by_key(mapping, u)
    return np.fromiter(mapping.values(), float, len(u.support))


def _rows_by_key(mapping: Mapping[DyadicInterval, float], u: HaarExpansion) -> np.ndarray:
    """`_support_rows` for any mapping, one `get` per row: the path for
    mappings not in support order, and the reference for the one-pass read."""
    return np.fromiter(map(mapping.get, u.support, repeat(0.0)), float, len(u.support))


class _KeptRows:
    """The storage of the constructors' results: `pietsch.PietschMeasure`'s
    weights, `pisier.Factorization`'s factors and
    `atomic.AtomicDecomposition`'s block rows, each a frozen dataclass.
    `_from_rows(u, ...)` builds every such result, and it alone decides what
    the result keeps.

    Rows: the result keeps each field of `rows` as an array in support order,
    with u's support tuple, and builds the field's dict on its first read.
    From then on the dict is the field and its array is gone, so a change a
    caller makes to the dict is what every later read sees. An object built
    from dicts keeps them. Reads at u's support rows (`_field_rows`) and key
    checks (`_keyed_by`) take a kept array as it is when its support is u's,
    with no dict built and no key hashed. A decomposition keeps its block
    rows as plain array fields and builds its `pieces` itself.

    Grid: the result keeps the grid of u's support it was built on, the
    atoms or the leaves alike. The grid depends on the support and the max
    level alone, never on the field values, and it holds O(n N) entries
    for n rows at max level N: the leaves are picked only when 2^N <=
    (2n + 1)(N + 1) + 256 (`_on_atoms`). Keeping a leaf grid is cheaper
    than repainting it: on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4),
    one `_paint` of `gen_random(14, 1, 0.5, 0)` (16,402 rows) took a
    median 0.13 ms, while its read-only owner array, which `np.take`
    copies, added about 4 us to each sum over its 16,384 leaves.
    `_grid_for(u)` hands the grid to a check on u of the same
    support and max level; any other u, and an object built from dicts (a
    `dataclasses.replace` copy included), gets a fresh grid.

    Source: given `verified`, what its constructor computed and verified on
    u (a measure's `||u||_p`, a factorization's measure), the result keeps
    (u, *verified). `_built_from(u)` gives that only for u the very same
    object, an identity test, so an equal expansion does not match and
    nothing is looked up.

    Read-only: every array the result keeps, field rows and array fields
    alike, is read-only. `_from_rows`, a deep copy and an unpickling all
    build the object through `__setstate__`, which freezes them. A
    `copy.copy` shares every field, the grid and the source; a deep copy or
    a pickle round trip carries its own grid and drops the source, as no
    identity survives either.
    """

    @classmethod
    def _from_rows(
        cls,
        u: HaarExpansion,
        rows: dict[str, np.ndarray],
        grid: _Grid | None = None,
        verified: tuple | None = None,
        **fields: object,
    ) -> "_KeptRows":
        """The object whose field `name` has value rows[name][j] at u's j-th
        support interval for each name in rows, keeping the arrays as they
        are, the grid `grid` of u's support and the source (u, *verified),
        each as the class docstring says; the other fields are `fields`."""
        obj = object.__new__(cls)
        source = None if verified is None else (u, *verified)
        obj.__setstate__(dict(fields, _support=u.support, _rows=rows, _grid=grid, _source=source))
        return obj

    def __copy__(self) -> "_KeptRows":
        """A shallow copy shares every field, the source included."""
        copied = object.__new__(type(self))
        vars(copied).update(vars(self))
        return copied

    def __getstate__(self) -> dict[str, object]:
        """The state of a deep copy or a pickle: all but the source."""
        return {name: value for name, value in vars(self).items() if name != "_source"}

    def __setstate__(self, state: dict[str, object]) -> None:
        """Set the state and make every array in it read-only, as
        `_Grid.__setstate__` does: the field rows and any array field."""
        vars(self).update(state)
        for value in chain(state.values(), state.get("_rows", {}).values()):
            if isinstance(value, np.ndarray):
                _read_only(value)

    def __getattr__(self, name: str) -> object:
        """A kept field's dict, built on its first read; its array goes. The
        mapping of kept arrays is replaced, never changed in place: a
        `copy.copy` shares it."""
        state = vars(self)
        rows = state.get("_rows", {})
        if name not in rows:
            raise AttributeError(name)
        state[name] = value = dict(zip(state["_support"], rows[name].tolist()))
        state["_rows"] = {key: kept for key, kept in rows.items() if key != name}
        return value

    def _kept(self, name: str) -> np.ndarray | None:
        """Field `name`'s kept array; None once its dict is built, and for an
        object built from dicts."""
        return vars(self).get("_rows", {}).get(name)

    def _of_support(self, u: HaarExpansion) -> bool:
        """Whether the kept support is u's: an identity test, then the tuple
        comparison in C. An object built from dicts keeps none."""
        support = vars(self).get("_support")
        return support is u.support or support == u.support

    def _own_rows(self, name: str, u: HaarExpansion) -> np.ndarray | None:
        """Field `name`'s kept array when it belongs to u's support, else
        None."""
        rows = self._kept(name)
        return rows if rows is not None and self._of_support(u) else None

    def _grid_for(self, u: HaarExpansion) -> _Grid:
        """The grid of u's support: the kept one when there is one, it
        belongs to u's support and its max level is u's, else a fresh
        `_support_grid(u)`. Either sums bit for bit alike."""
        grid = vars(self).get("_grid")
        if grid is not None and grid.max_level == u.max_level and self._of_support(u):
            return grid
        return _support_grid(u)

    def _built_from(self, u: HaarExpansion) -> tuple | None:
        """What the constructor verified on u when u is the very expansion
        the object was built from, else None."""
        source = vars(self).get("_source")
        return source[1:] if source is not None and source[0] is u else None

    def _field_rows(self, name: str, u: HaarExpansion) -> np.ndarray:
        """Field `name` at u's support rows in support order: its own rows,
        else its dict read by `_support_rows`."""
        rows = self._own_rows(name, u)
        return _support_rows(getattr(self, name), u) if rows is None else rows

    def _keyed_by(self, name: str, u: HaarExpansion, subset: bool) -> bool:
        """Whether field `name`'s keys lie in u's support (`subset`) or are
        exactly u's support. Own rows and a dict in support order
        (`_support_order`) answer with no key hashed; any other mapping is
        compared by key set."""
        if self._own_rows(name, u) is not None:
            return True
        mapping = getattr(self, name)
        if _support_order(mapping, u):
            return True
        keys, support = mapping.keys(), set(u.support)
        return keys <= support if subset else keys == support


def _product_norms(
    u: HaarExpansion, factors: np.ndarray, p: float, q: float | None, grid: _Grid
) -> list[float]:
    """The norm of phi_k * u for each row k of the (K, n) array `factors`
    (phi_k at u's support rows): `_norm` at q of the product expansion
    phi_k * u (`tests/pietsch_oracle.multiply`), bit for bit and with the
    same exception, by the same two rules, and no expansion is built.

    The products without zero rows sum on u's grid `grid`, all in one
    batched `_cells` call. A product with zero rows sums on the grid of its
    nonzero rows, the grid of its own expansion: other atoms would round the
    sum differently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = u.values * factors[..., None]
    finite = np.isfinite(values).all(axis=-1)
    if not finite.all():
        bad = u.support[int(np.argwhere(~finite)[0, 1])]
        raise ValueError(f"coefficient at {bad} is not finite")
    _check_exponents(p, q)
    nonzero = values.any(axis=-1)
    terms = _terms(values, q)
    means = np.empty(len(terms))
    full = nonzero.all(axis=-1)
    if full.any():
        means[full] = _norm_means(grid, terms[full], p, q)
    for k in np.flatnonzero(~full).tolist():
        keep = nonzero[k]
        own = _Grid(u.max_level, u.levels[keep], u.positions[keep])
        means[k] = _norm_means(own, terms[k, keep], p, q)
    return list(map(_root, means, repeat(p), nonzero.any(axis=-1).tolist()))


# batch rows times the n + 1 tree sums and the cells of each row per batched
# `_cells` call (`_batch_rows`): 512 KB per float array
_BATCH_ENTRIES = 1 << 16


def _batch_rows(grid: _Grid) -> int:
    """Rows per batched `_cells` call on the grid: as many as
    `_BATCH_ENTRIES` entries hold, and at least one."""
    return max(1, _BATCH_ENTRIES // (len(grid.parent) + 1 + len(grid.owner)))


# the row length from which `_fsum_rows` bins by exponent instead of calling
# `math.fsum` (the timing table is in CHANGES.md)
_FSUM_MIN_ROW = 1500
# the frexp exponents of floats up to 2^1000 in magnitude, -1073 (for 2^-1074)
# to 1001, one bin each
_LOW_EXPONENT, _EXPONENTS = -1073, 2075
# entries binned per step: 32 KB float arrays, which malloc reuses from its
# heap; binning a deep-hardy row of 16k entries at once raised the bench
# worker's peak RSS by about 0.5 MB
_BIN_ENTRIES = 1 << 12


def _fsum_rows(a: np.ndarray) -> list[float]:
    """`math.fsum` of each row of the (K, n) float array a, bit for bit.

    Both are exactly rounded. Each finite value is an integer mantissa
    below 2^53 times 2^(e - 53) (`np.frexp`); its halves, at most 2^27 and
    2^25, are summed per exponent e by `np.bincount`, exactly while
    n < 2^26, and a row's bins are added in Python ints and rounded once by
    int true division (R. M. Neal, "Fast exact summation using small and
    large superaccumulators", arXiv:1505.05571). `math.fsum` itself sums
    rows shorter than `_FSUM_MIN_ROW`, rows of 2^20 or more, every row of
    an array with an entry that is not finite or exceeds 2^1000 (so its
    values, and its exceptions, are fsum's: inf, nan, the ValueError of
    -inf + inf, the OverflowError of an intermediate overflow), and a row
    whose exact sum is 0 (so the sign of a zero sum is fsum's)."""
    a = np.asarray(a, dtype=float)
    k, n = a.shape
    big = 2.0**1000
    if not k or n < _FSUM_MIN_ROW or n >= 1 << 20 or not -big <= a.min() <= a.max() <= big:
        return list(map(math.fsum, a.tolist()))
    return list(map(_binned_sum, a))


def _binned_sum(row: np.ndarray) -> float:
    """The exponent-binned sum of `_fsum_rows` of one row, `_BIN_ENTRIES`
    entries at a time."""
    high_sums = low_sums = np.zeros(_EXPONENTS)
    for lo in range(0, len(row), _BIN_ENTRIES):
        mantissas, exponents = np.frexp(row[lo : lo + _BIN_ENTRIES])
        bins = exponents.astype(np.intp)
        bins -= _LOW_EXPONENT
        # mantissa * 2^27 = high + low * 2^-26 with integers |high| <= 2^27
        # and |low| <= 2^25, each step exact; `low` overwrites the mantissas
        low = np.ldexp(mantissas, 27, out=mantissas)
        high = np.rint(low)
        low -= high
        low *= 2.0**26
        high_sums = high_sums + np.bincount(bins, high, _EXPONENTS)
        low_sums = low_sums + np.bincount(bins, low, _EXPONENTS)
    used = np.flatnonzero((high_sums != 0) | (low_sums != 0))
    exact = 0
    for b, h, l in zip(used.tolist(), high_sums[used].tolist(), low_sums[used].tolist()):
        exact += ((int(h) << 26) + int(l)) << b
    return exact / (1 << 53 - _LOW_EXPONENT) if exact else math.fsum(row.tolist())


def _fsum(values: np.ndarray) -> float:
    """`math.fsum` of a float vector, through `_fsum_rows`."""
    return _fsum_rows(np.asarray(values, dtype=float)[None])[0]

