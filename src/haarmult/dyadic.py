"""Dyadic intervals on [0,1) and exact combinatorics of interval families.

A `DyadicInterval` is an immutable `(level, position)` tuple, so hashing,
equality and ordering run in C. Every family query reads one table, each
member's nearest strict ancestor (`IntervalFamily.parents`): depths are one
top-down pass over it and packed measures one bottom-up pass, both O(n), and
the generation decay verdicts of every member and layer one bottom-up pass in
O(n L). Measures are exact integer counts of leaves of level `max_level`,
made `fractions.Fraction` only on return; only the transcendental right side
of the generation decay bound is a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyFamilyError


class _LevelPosition(NamedTuple):
    level: int
    position: int


class DyadicInterval(_LevelPosition):
    """The half-open interval [position * 2^-level, (position + 1) * 2^-level).

    Positions are 0-based: level n splits [0,1) into slots 0 .. 2^n - 1.
    Any two dyadic intervals are either disjoint or nested. An interval is
    the tuple (level, position): it hashes, compares and sorts as that tuple.
    """

    __slots__ = ()

    def __new__(cls, level: int, position: int) -> "DyadicInterval":
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if not 0 <= position < (1 << level):
            raise ValueError(f"position must lie in [0, 2^{level}), got {position}")
        return super().__new__(cls, level, position)

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


class IntervalFamily:
    """A finite, duplicate-free collection of dyadic intervals.

    Intervals are kept sorted by (level, position) so iteration order is
    canonical. ``max_level`` is the declared cap; every member must respect it.
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
        object.__setattr__(self, "intervals", ordered)
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "_set", frozenset(ordered))
        object.__setattr__(self, "_ancestry", None)

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

    def restrict(self, interval: DyadicInterval) -> "IntervalFamily":
        """Members contained in the given interval (the family I ∩ E)."""
        members = [i for i in self.intervals if interval.contains(i)]
        return IntervalFamily(members, max_level=self.max_level)

    def _table(self) -> tuple[dict[DyadicInterval, int], tuple[int, ...]]:
        """Member -> index map and `parents`, built on first use by a walk in
        left-endpoint order, coarsest first: a member's ancestors come before
        it and all members between lie inside them, so they stay on the stack.

        Endpoints are integer leaf counts; the stack top contains the next
        member iff its right end lies past that member's left end."""
        if self._ancestry is None:
            members, top = self.intervals, self.max_level
            index = dict(zip(members, range(len(members))))
            parent = [-1] * len(members)
            lefts = [m.position << (top - m.level) for m in members]
            rights = [left + (1 << (top - m.level)) for left, m in zip(lefts, members)]
            chain: list[int] = []
            # a stable sort keeps the coarser of two members with one left end first
            for k in sorted(range(len(members)), key=lefts.__getitem__):
                while chain and rights[chain[-1]] <= lefts[k]:
                    chain.pop()
                if chain:
                    parent[k] = chain[-1]
                chain.append(k)
            object.__setattr__(self, "_ancestry", (index, tuple(parent)))
        return self._ancestry

    def parents(self) -> tuple[int, ...]:
        """Per member, the index of its nearest strict ancestor in the family,
        or -1 if it is maximal; a parent precedes its children."""
        return self._table()[1]

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
    # leaves of level max_level inside each member, summed bottom-up
    packed = [1 << (family.max_level - i.level) for i in family]
    parent = family.parents()
    for k in range(len(packed) - 1, -1, -1):
        if parent[k] >= 0:
            packed[parent[k]] += packed[k]
    best = max(count << i.level for count, i in zip(packed, family))
    return Fraction(best, 1 << family.max_level)


def maximal_intervals(family: IntervalFamily) -> IntervalFamily:
    """The pairwise-disjoint maximal members; they cover the same set."""
    members = [i for i, up in zip(family, family.parents()) if up < 0]
    return IntervalFamily(members, max_level=family.max_level)


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


def _layer_leaves(family: IntervalFamily) -> list[list[int]]:
    """Per member I, entry n: the leaves of level max_level in the members
    inside I at depth depth(I) + n, gathered bottom-up over the parent table.

    The members inside I are I and its descendants in the table (an ancestor
    of J ⊆ I lies in [J, I] or contains I), so each list is a histogram of
    relative depths, and merging every child into its parent costs O(n L).
    """
    top = family.max_level
    leaves = [[1 << (top - i.level)] for i in family]
    parent = family.parents()
    for k in range(len(leaves) - 1, -1, -1):
        if parent[k] >= 0:
            target = leaves[parent[k]]
            for n, count in enumerate(leaves[k], 1):
                if n < len(target):
                    target[n] += count
                else:
                    target.append(count)
    return leaves


def _within_decay_bound(
    leaves: list[int], max_level: int, interval: DyadicInterval, layer: int, packing: float
) -> bool:
    covered = leaves[layer] if layer < len(leaves) else 0
    bound = 4.0 * 2.0 ** (-2.0 * layer / (4.0 * packing + 1.0)) * float(interval.measure)
    return covered / (1 << max_level) <= bound


def generation_decay_verdicts(family: IntervalFamily, layers: int) -> list[list[bool]]:
    """Per member, in family order, `generation_decay_check` at every layer
    0 .. layers - 1: one Carleson constant and one bottom-up pass for all."""
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    if not family:
        return []
    packing = float(carleson_constant(family))
    top = family.max_level
    return [
        [_within_decay_bound(leaves, top, interval, n, packing) for n in range(layers)]
        for leaves, interval in zip(_layer_leaves(family), family)
    ]


def generation_decay_check(
    family: IntervalFamily, interval: DyadicInterval, layer: int
) -> bool:
    """Check |G_layer*(I, E)| <= 4 * 2^(-2*layer / (4*[[E]] + 1)) * |I|.

    The left side is the exact measure of the layer of the restricted family
    {J in E : J ⊆ I}, the members inside I at depth depth(I) + layer; the
    right side is a float. `generation_decay_verdicts` gives every verdict of
    a family at once.
    """
    if layer < 0:
        raise ValueError("layer must be nonnegative")
    if interval not in family:
        raise ValueError(f"interval {interval} is not a member of the family")
    index, _ = family._table()
    leaves = _layer_leaves(family)[index[interval]]
    packing = float(carleson_constant(family))
    return _within_decay_bound(leaves, family.max_level, interval, layer, packing)


def is_block(collection: IntervalFamily, ambient: IntervalFamily) -> bool:
    """Block predicate for `collection` inside `ambient`.

    True iff the collection has a unique maximal interval I and contains
    every ambient member K with J ⊆ K ⊆ I for some member J; that is, iff
    exactly one member's nearest ambient ancestor is missing from it (or none).
    """
    if not collection.issubset(ambient):
        raise ValueError("collection must be a sub-collection of the ambient family")
    index, parent = ambient._table()
    ups = [parent[index[i]] for i in collection]
    return sum(up < 0 or ambient.intervals[up] not in collection for up in ups) == 1
