"""Reference implementations of the interval-family queries, kept from the
per-level bisect scans and ancestor walks that the nearest-ancestor table
replaced. The tests compare the library against them; they are slow
(O(n^2 L) exact operations per decay sweep) and not part of the package.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

from haarmult import DyadicInterval, IntervalFamily


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


@lru_cache(maxsize=None)
def _restricted_generations(family, interval):
    return generations(family.restrict(interval))


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
