"""Reference implementations of the interval-family queries, kept from the
per-level bisect scans and ancestor walks that the nearest-ancestor table
replaced, the stack walk that built that table before the heap-code
search, and the heap-code search itself (`heap_ancestors`), which the
preorder pointer jumps of `dyadic._nearest_ancestors` replaced. The tests
compare the library against them; they are slow (O(n^2 L) exact operations
per decay sweep) and not part of the package.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np

from haarmult import DyadicInterval, IntervalFamily


def parents(family):
    """Per member, the index of its nearest strict ancestor in the family, or
    -1, by a walk in left-endpoint order, coarsest first: a member's
    ancestors come before it and all members between lie inside them, so
    they stay on the stack.

    Endpoints are integer leaf counts; the stack top contains the next
    member iff its right end lies past that member's left end."""
    members, top = family.intervals, family.max_level
    parent = [-1] * len(members)
    lefts = [m.position << (top - m.level) for m in members]
    rights = [left + (1 << (top - m.level)) for left, m in zip(lefts, members)]
    chain = []
    # a stable sort keeps the coarser of two members with one left end first
    for k in sorted(range(len(members)), key=lefts.__getitem__):
        while chain and rights[chain[-1]] <= lefts[k]:
            chain.pop()
        if chain:
            parent[k] = chain[-1]
        chain.append(k)
    return tuple(parent)


def heap_ancestors(levels, positions):
    """`dyadic._nearest_ancestors` by heap code: intervals sorted by (level,
    position) are in heap order 2^level - 1 + position, so a binary search
    finds an interval's ancestor at a given level; climbing through the
    levels present, one at a time, the first hit is the nearest."""
    heap = (1 << levels) - 1 + positions
    first = np.ones(len(heap), dtype=bool)
    first[1:] = levels[1:] != levels[:-1]
    present = levels[first]
    # each row's own level, then the next level to try, as an index into
    # the levels present
    below = np.cumsum(first) - 1
    parent = np.full(len(heap), -1)
    rows = np.flatnonzero(below > 0)
    below = below[rows]
    while len(rows):
        below -= 1
        level = present[below]
        code = (1 << level) - 1 + (positions[rows] >> (levels[rows] - level))
        at = np.minimum(np.searchsorted(heap, code), len(heap) - 1)
        hit = heap[at] == code
        parent[rows[hit]] = at[hit]
        keep = ~hit & (below > 0)
        rows, below = rows[keep], below[keep]
    return parent


@lru_cache(maxsize=None)
def _by_level(family):
    by_level = {}
    for interval in family:
        by_level.setdefault(interval.level, []).append(interval.position)
    return by_level


def count_inside(family, interval, level):
    """Number of members at the given level contained in `interval`."""
    positions = _by_level(family).get(level)
    if positions is None or level < interval.level:
        return 0
    shift = level - interval.level
    lo = interval.position << shift
    hi = (interval.position + 1) << shift
    return bisect_left(positions, hi) - bisect_left(positions, lo)


def packed_measure(family, interval):
    """Exact total measure of members contained in `interval`."""
    total = Fraction(0)
    for level in _by_level(family):
        count = count_inside(family, interval, level)
        if count:
            total += Fraction(count, 1 << level)
    return total


def has_member_inside(family, interval):
    return any(
        count_inside(family, interval, level) for level in _by_level(family)
    )


def ancestor_depth(family, interval):
    return sum(
        1 for level in range(interval.level) if interval.ancestor(level) in family
    )


@lru_cache(maxsize=None)
def carleson_constant(family):
    best = Fraction(0)
    for interval in family:
        ratio = packed_measure(family, interval) / interval.measure
        if ratio > best:
            best = ratio
    return best


def maximal_intervals(family):
    members = [i for i in family if ancestor_depth(family, i) == 0]
    return IntervalFamily(members, max_level=family.max_level)


def generations(family):
    buckets = {}
    for interval in family:
        buckets.setdefault(ancestor_depth(family, interval), []).append(interval)
    return [
        IntervalFamily(buckets[n], max_level=family.max_level)
        for n in range(len(buckets))
    ]


def restrict(family, interval):
    """Members contained in the given interval (the family I ∩ E)."""
    members = [i for i in family if interval.contains(i)]
    return IntervalFamily(members, max_level=family.max_level)


@lru_cache(maxsize=None)
def _restricted_generations(family, interval):
    return generations(restrict(family, interval))


def layer_measures(family, interval):
    """Exact measure of each layer of the restricted family I ∩ E."""
    return [
        sum((j.measure for j in layer), Fraction(0))
        for layer in _restricted_generations(family, interval)
    ]


def generation_decay_check(family, interval, layer):
    """Verdict of the decay bound from the generations of I ∩ E.

    The Carleson constant and the restricted generations are cached per
    family and interval; the verdict is computed as before."""
    if layer < 0:
        raise ValueError("layer must be nonnegative")
    if interval not in family:
        raise ValueError(f"interval {interval} is not a member of the family")
    layers = _restricted_generations(family, interval)
    if layer >= len(layers):
        covered = Fraction(0)
    else:
        covered = sum((j.measure for j in layers[layer]), Fraction(0))
    packing = float(carleson_constant(family))
    bound = 4.0 * 2.0 ** (-2.0 * layer / (4.0 * packing + 1.0)) * float(interval.measure)
    return float(covered) <= bound


def is_block(collection, ambient):
    if not collection.issubset(ambient):
        raise ValueError("collection must be a sub-collection of the ambient family")
    tops = maximal_intervals(collection)
    if len(tops) != 1:
        return False
    top = tops.intervals[0]
    by_level = _by_level(ambient)
    for level in range(top.level, ambient.max_level + 1):
        positions = by_level.get(level)
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
            if has_member_inside(collection, candidate):
                return False
    return True
