"""Dyadic intervals on [0,1) and exact combinatorics of interval families.

A `DyadicInterval` is an immutable `(level, position)` tuple, so hashing,
equality and ordering run in C. Every family query reads one table, each
member's nearest strict ancestor (`IntervalFamily.parents`); the maximal
members are those whose entry is -1. `_nearest_ancestors` builds it, by
pointer jumps in preorder (left end, then coarsest first) from each
member's predecessor. The atom grid of `haar` also runs it on support
arrays; the leaf grid paints its table level by level instead, and this
search is the reference for that paint. Depths are one top-down pass over
the table and packed measures one bottom-up pass, both O(n).
`generation_decay_verdicts` answers the decay bound for every member and
layer at once from one (member, relative depth) count array, built by
climbing the table one generation at a time (`_layer_leaves`), whose row
sums also give the Carleson constant. Its core, `_decay_verdicts`, takes
any parent table: a `verify` trial passes its support grid's, so no family
is built there. Measures are exact integer counts of leaves of level
`max_level`, made `fractions.Fraction` only on return; only the
transcendental right side of the generation decay bound is a float.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import EmptyFamilyError


class _LevelPosition(NamedTuple):
    level: int
    position: int


class DyadicInterval(_LevelPosition):
    """The half-open interval [position * 2^-level, (position + 1) * 2^-level).

    Positions are 0-based: level n splits [0,1) into slots 0 .. 2^n - 1.
    Any two dyadic intervals are either disjoint or nested. An interval is
    the tuple (level, position): it hashes, compares and sorts as that tuple.
    Both are integers (`operator.index`: a Python or numpy integer, kept as
    int), else TypeError; the position's range is tested by a shift, so no
    2^level is built.
    """

    __slots__ = ()

    def __new__(cls, level: int, position: int) -> "DyadicInterval":
        try:
            level, position = operator.index(level), operator.index(position)
        except TypeError:
            message = f"level and position must be integers, got {level!r}, {position!r}"
            raise TypeError(message) from None
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if position >> level:  # nonzero for a negative position too
            raise ValueError(f"position must lie in [0, 2^{level}), got {position}")
        return tuple.__new__(cls, (level, position))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "DyadicInterval":
        # validate `_replace` too, which builds through `_make`
        return cls(*iterable)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def left(self) -> Fraction:
        return Fraction(self.position, 1 << self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.position + 1, 1 << self.level)

    def contains(self, other: "DyadicInterval") -> bool:
        """Set containment: other is a subset of self (equality included)."""
        if other.level < self.level:
            return False
        return other.position >> (other.level - self.level) == self.position

    def ancestor(self, level: int) -> "DyadicInterval":
        """The unique dyadic interval at a coarser level containing self."""
        if not 0 <= level <= self.level:
            raise ValueError(f"ancestor level must be in [0, {self.level}]")
        return DyadicInterval(level, self.position >> (self.level - level))

    def __str__(self) -> str:
        return f"{self.level}/{self.position}"


def _nearest_ancestors(levels: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Per interval (levels[k], positions[k]), distinct and sorted by
    (level, position), the index of its nearest strict ancestor among them,
    -1 if it has none.

    In preorder, by left end and then coarsest first, an interval's
    ancestors come before it, and its nearest one is the first interval on
    the chain of its predecessor's ancestors-or-self whose right end reaches
    its own; the intervals on that chain below it lie to its left. Every row
    climbs at once: from the row it stands on it steps to that row's current
    candidate, which lies on the same chain no higher than that row's
    parent, so no step passes the answer. This is the stack walk of
    `tests/dyadic_oracle.py::parents` for all rows together. Endpoints are
    integer leaf counts at the finest level present; `levels` and
    `positions` are int64, or object arrays of Python ints past level 62."""
    n = len(levels)
    if n < 2:
        return np.full(n, -1)
    shift = levels[-1] - levels
    starts = positions << shift
    # a stable sort keeps the coarser of two intervals with one left end first
    order = np.argsort(starts, kind="stable")
    ends = (starts + np.left_shift(1, shift))[order]
    # candidates by preorder index: first each row's predecessor
    candidate = np.arange(-1, n - 1)
    rows = np.arange(1, n)
    while len(rows):
        at = candidate[rows]
        rows = rows[ends[at] < ends[rows]]
        up = candidate[candidate[rows]]
        candidate[rows] = up
        rows = rows[up >= 0]
    parent = np.full(n, -1)
    parent[order] = np.where(candidate >= 0, order[candidate], -1)
    return parent


class _Immutable:
    """A slotted base whose attributes are set once, with
    `object.__setattr__`, and never assigned or deleted after."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class IntervalFamily(_Immutable):
    """A finite, duplicate-free collection of dyadic intervals.

    Intervals are kept sorted by (level, position) so iteration order is
    canonical. ``max_level`` is the declared cap; every member must respect it.
    A family is immutable, and copies and pickles through its constructor.
    """

    __slots__ = ("intervals", "max_level", "_set", "_ancestry")

    def __init__(
        self, intervals: Iterable[DyadicInterval], max_level: int | None = None
    ) -> None:
        ordered = tuple(sorted(set(intervals)))
        if max_level is None:
            max_level = max((i.level for i in ordered), default=0)
        for interval in ordered:
            if interval.level > max_level:
                raise ValueError(
                    f"interval {interval} exceeds declared max level {max_level}"
                )
        self._set_members(ordered, max_level)

    @classmethod
    def _from_sorted(
        cls, ordered: tuple[DyadicInterval, ...], max_level: int
    ) -> "IntervalFamily":
        """The family of members already sorted and distinct, none above
        `max_level`: no sort, no set pass and no per-member level check."""
        family = object.__new__(cls)
        family._set_members(ordered, max_level)
        return family

    def _set_members(self, ordered: tuple[DyadicInterval, ...], max_level: int) -> None:
        object.__setattr__(self, "intervals", ordered)
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "_set", frozenset(ordered))
        object.__setattr__(self, "_ancestry", None)

    def __reduce__(self) -> tuple:
        """Pickle and copy through the validating constructor."""
        return IntervalFamily, (self.intervals, self.max_level)

    def __iter__(self) -> Iterator[DyadicInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __contains__(self, interval: DyadicInterval) -> bool:
        return interval in self._set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalFamily):
            return NotImplemented
        return self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        inner = ", ".join(str(i) for i in self.intervals)
        return f"IntervalFamily({{{inner}}})"

    def issubset(self, other: "IntervalFamily") -> bool:
        return self._set <= other._set

    def parents(self) -> tuple[int, ...]:
        """Per member, the index of its nearest strict ancestor in the family,
        or -1 if it is maximal; a parent precedes its children."""
        if self._ancestry is None:
            # leaf endpoints past level 62 overflow int64: keep Python ints there
            dtype = np.int64 if self.max_level <= 62 else object
            flat = np.fromiter(chain.from_iterable(self), dtype, 2 * len(self))
            parent = _nearest_ancestors(flat[0::2], flat[1::2])
            object.__setattr__(self, "_ancestry", tuple(parent.tolist()))
        return self._ancestry

    def depths(self) -> list[int]:
        """Per member, the number of members strictly containing it.

        The dyadic ancestors of an interval form a chain, so this count is
        also the length of the longest strictly increasing chain above it
        within the family.
        """
        depth: list[int] = []
        for up in self.parents():
            depth.append(depth[up] + 1 if up >= 0 else 0)
        return depth


def carleson_constant(family: IntervalFamily) -> Fraction:
    """sup over members I of (1/|I|) * sum of |J| over members J inside I.

    Always >= 1 for a non-empty family; equals 1 iff the family is pairwise
    disjoint.
    """
    if not family:
        raise EmptyFamilyError("Carleson constant of an empty family")
    return _packed_carleson(family, [1] * len(family))


def _packed_carleson(family: IntervalFamily, multiplicity: list[int]) -> Fraction:
    """The Carleson constant of the multiset holding each member of a
    non-empty family `multiplicity[k]` times."""
    # leaves of level max_level inside each member, summed bottom-up
    top = family.max_level
    packed = [m << (top - i.level) for m, i in zip(multiplicity, family)]
    parent = family.parents()
    for k in range(len(packed) - 1, -1, -1):
        if parent[k] >= 0:
            packed[parent[k]] += packed[k]
    best = max(count << i.level for count, i in zip(packed, family))
    return Fraction(best, 1 << top)


def generations(family: IntervalFamily) -> list[IntervalFamily]:
    """Layers obtained by repeatedly removing the maximal members.

    Because the ancestors of an interval form a chain, the n-th layer is
    exactly the set of members with n ancestors inside the family; the layers
    partition the family and each layer is pairwise disjoint.
    """
    buckets: dict[int, list[DyadicInterval]] = {}
    for interval, depth in zip(family, family.depths()):
        buckets.setdefault(depth, []).append(interval)
    return [
        IntervalFamily(buckets[n], max_level=family.max_level)
        for n in range(len(buckets))
    ]


def _layer_leaves(
    levels: np.ndarray, parent: np.ndarray, max_level: int, layers: int = 0
) -> np.ndarray:
    """The (n, max(depth + 1, layers)) array whose entry (k, m) counts the
    leaves of level max_level in the members m generations below member k:
    the members inside I_k at depth depth(I_k) + m, for the members
    (levels[k], ...) with parent table `parent` (a parent precedes its
    children), `depth` the deepest member's.

    The members inside I are I and its descendants in the table (an ancestor
    of J ⊆ I lies in [J, I] or contains I), so climbing the table one
    generation at a time, every member adds its leaves to its m-th ancestor
    in column m, in O(n depth). `levels` and `parent` are int64 arrays.
    """
    # counts up to 2^N, past int64 beyond level 62: Python ints there, as in
    # `IntervalFamily.parents`
    leaves = np.left_shift(1, (max_level - levels).astype(np.int64 if max_level <= 62 else object))
    columns = [leaves]
    rows, up = np.flatnonzero(parent >= 0), parent[parent >= 0]
    while len(rows):
        columns.append(np.zeros(len(levels), leaves.dtype))
        np.add.at(columns[-1], up, leaves[rows])
        up = parent[up]
        rows, up = rows[up >= 0], up[up >= 0]
    columns += [np.zeros(len(levels), leaves.dtype)] * (layers - len(columns))
    return np.stack(columns, axis=1)


def _decay_verdicts(
    levels: np.ndarray, parent: np.ndarray, max_level: int, layers: int
) -> np.ndarray:
    """The (n, layers) verdicts of `generation_decay_verdicts` for the
    non-empty family of members (levels[k], ...) with parent table `parent`.

    One count array (`_layer_leaves`) gives both sides: its row sums, taken
    relative to |I|, give the Carleson constant, and each count over 2^N is
    compared with the float bound times 2^-level, bit for bit the Python
    `count / scale <= bound * measure`.
    """
    counts = _layer_leaves(levels, parent, max_level, layers)
    # in Python ints: a row sum reaches (depth + 1) 2^N, past int64 at level 61
    packing = (counts.sum(axis=1, dtype=object) << levels.astype(object)).max() / (1 << max_level)
    bounds = [4.0 * 2.0 ** (-2.0 * n / (4.0 * packing + 1.0)) for n in range(layers)]
    return counts[:, :layers] / (1 << max_level) <= np.outer(np.ldexp(1.0, -levels), bounds)


def generation_decay_verdicts(family: IntervalFamily, layers: int) -> list[list[bool]]:
    """Per member I, in family order, and per layer n in 0 .. layers - 1:
    whether |G_n*(I, E)| <= 4 * 2^(-2n / (4[[E]] + 1)) * |I|.

    The left side is the exact measure of layer n of the restricted family
    {J in E : J ⊆ I}, the members inside I at depth depth(I) + n; the right
    side is a float. One count array over the parent table gives the
    Carleson constant and every verdict (`_decay_verdicts`).
    """
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    if not family:
        return []
    levels = np.fromiter((i.level for i in family), np.int64, len(family))
    return _decay_verdicts(levels, np.array(family.parents()), family.max_level, layers).tolist()


def is_block(collection: IntervalFamily, ambient: IntervalFamily) -> bool:
    """Block predicate for `collection` inside `ambient`.

    True iff the collection has a unique maximal interval I and contains
    every ambient member K with J ⊆ K ⊆ I for some member J; that is, iff
    exactly one member's nearest ambient ancestor is missing from it (or none).

    This is the reference predicate: `atomic.verify_decomposition` checks
    all blocks at once from the support parent rows and does not call it.
    """
    if not collection.issubset(ambient):
        raise ValueError("collection must be a sub-collection of the ambient family")
    index = dict(zip(ambient, range(len(ambient))))
    parent = ambient.parents()
    ups = [parent[index[i]] for i in collection]
    return sum(up < 0 or ambient.intervals[up] not in collection for up in ups) == 1
