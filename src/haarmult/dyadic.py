"""Dyadic intervals on [0,1) and exact combinatorics of interval families.

Measures, Carleson constants and generation measures are computed in exact
dyadic-rational arithmetic (`fractions.Fraction`); only the transcendental
right-hand side of the generation decay bound is evaluated in floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import EmptyFamilyError


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The half-open interval [position * 2^-level, (position + 1) * 2^-level).

    Positions are 0-based: level n splits [0,1) into slots 0 .. 2^n - 1.
    Any two dyadic intervals are either disjoint or nested.
    """

    level: int
    position: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if not 0 <= self.position < (1 << self.level):
            raise ValueError(
                f"position must lie in [0, 2^{self.level}), got {self.position}"
            )

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

    __slots__ = ("intervals", "max_level", "_set", "_by_level")

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
        by_level: dict[int, list[int]] = {}
        for interval in ordered:
            by_level.setdefault(interval.level, []).append(interval.position)
        object.__setattr__(self, "_by_level", by_level)

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

    def count_inside(self, interval: DyadicInterval, level: int) -> int:
        """Number of members at the given level contained in `interval`."""
        positions = self._by_level.get(level)
        if positions is None or level < interval.level:
            return 0
        shift = level - interval.level
        lo = interval.position << shift
        hi = (interval.position + 1) << shift
        return bisect_left(positions, hi) - bisect_left(positions, lo)

    def packed_measure(self, interval: DyadicInterval) -> Fraction:
        """Exact total measure of members contained in `interval`."""
        total = Fraction(0)
        for level in self._by_level:
            count = self.count_inside(interval, level)
            if count:
                total += Fraction(count, 1 << level)
        return total

    def has_member_inside(self, interval: DyadicInterval) -> bool:
        """True iff some member is contained in `interval`."""
        return any(
            self.count_inside(interval, level) for level in self._by_level
        )

    def ancestor_depth(self, interval: DyadicInterval) -> int:
        """Number of members strictly containing `interval`.

        The dyadic ancestors of an interval form a chain, so this count is
        also the length of the longest strictly increasing chain above it
        within the family.
        """
        return sum(
            1
            for level in range(interval.level)
            if interval.ancestor(level) in self._set
        )


def carleson_constant(family: IntervalFamily) -> Fraction:
    """sup over members I of (1/|I|) * sum of |J| over members J inside I.

    Always >= 1 for a non-empty family; equals 1 iff the family is pairwise
    disjoint.
    """
    if not family:
        raise EmptyFamilyError("Carleson constant of an empty family")
    best = Fraction(0)
    for interval in family:
        ratio = family.packed_measure(interval) / interval.measure
        if ratio > best:
            best = ratio
    return best


def maximal_intervals(family: IntervalFamily) -> IntervalFamily:
    """The pairwise-disjoint maximal members; they cover the same set."""
    members = [i for i in family if family.ancestor_depth(i) == 0]
    return IntervalFamily(members, max_level=family.max_level)


def generations(family: IntervalFamily) -> list[IntervalFamily]:
    """Layers obtained by repeatedly removing the maximal members.

    Because the ancestors of an interval form a chain, the n-th layer is
    exactly the set of members with n ancestors inside the family; the layers
    partition the family and each layer is pairwise disjoint.
    """
    buckets: dict[int, list[DyadicInterval]] = {}
    for interval in family:
        buckets.setdefault(family.ancestor_depth(interval), []).append(interval)
    return [
        IntervalFamily(buckets[n], max_level=family.max_level)
        for n in range(len(buckets))
    ]


def generation_decay_check(
    family: IntervalFamily, interval: DyadicInterval, layer: int
) -> bool:
    """Check |G_layer*(I, E)| <= 4 * 2^(-2*layer / (4*[[E]] + 1)) * |I|.

    The left side is the exact measure of the layer of the restricted family
    {J in E : J ⊆ I}; the right side is evaluated in floating point.
    """
    if layer < 0:
        raise ValueError("layer must be nonnegative")
    if interval not in family:
        raise ValueError(f"interval {interval} is not a member of the family")
    restricted = family.restrict(interval)
    layers = generations(restricted)
    if layer >= len(layers):
        covered = Fraction(0)
    else:
        covered = sum((j.measure for j in layers[layer]), Fraction(0))
    packing = float(carleson_constant(family))
    bound = 4.0 * 2.0 ** (-2.0 * layer / (4.0 * packing + 1.0)) * float(interval.measure)
    return float(covered) <= bound


def is_block(collection: IntervalFamily, ambient: IntervalFamily) -> bool:
    """Block predicate for `collection` inside `ambient`.

    True iff the collection has a unique maximal interval I and contains
    every ambient member K with J ⊆ K ⊆ I for some member J.
    """
    if not collection.issubset(ambient):
        raise ValueError("collection must be a sub-collection of the ambient family")
    tops = maximal_intervals(collection)
    if len(tops) != 1:
        return False
    top = tops.intervals[0]
    for level in range(top.level, ambient.max_level + 1):
        positions = ambient._by_level.get(level)
        if not positions:
            continue
        shift = level - top.level
        lo = top.position << shift
        hi = (top.position + 1) << shift
        start = bisect_left(positions, lo)
        stop = bisect_left(positions, hi)
        for pos in positions[start:stop]:
            candidate = DyadicInterval(level, pos)
            if candidate in collection:
                continue
            if collection.has_member_inside(candidate):
                return False
    return True
