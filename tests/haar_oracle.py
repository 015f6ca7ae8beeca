"""Reference implementations of the expansion hot paths, kept from the
per-coefficient loops that the support arrays replaced: the constructor's
validation loop (`cleaned_coeffs`), the constructor as it built its
arrays from lists (`construct`), the multiplier, and the set-based
stopping-time assignment, which steps through every k and reads its
parents from `dyadic_oracle`; the pointwise value of a Haar function, for direct
evaluation of Haar sums; the sub-expansion on a set of intervals, which
the library builds from support rows instead; `push_down`, the per-level
leaf accumulation that the painted leaf grid of `haar._Grid` replaced, and
`leaf_owners`, one slice paint per row; and `cells`, the cell sums over
every (interval, atom) pair that the tree prefix sum of `haar._cells`
replaced. The tests compare the library against them; they are slow and
not part of the package. `leaf_values` is not a reference: it spreads the
library's own cell sums onto the leaves, for the tests to compare; nor is
`assert_read_only`, which checks that a result keeps no writable array.
"""

import math
import operator

import numpy as np
import pytest

from haarmult import DyadicInterval, HaarExpansion, IntervalFamily
from haarmult.atomic import AtomicPiece
from haarmult.errors import VerificationError
from haarmult.haar import _cells, _on_atoms, _support_grid

import dyadic_oracle


def push_down(max_level, levels, positions, values):
    """Leaf values of sum_j values[..., j] 1_{I_j} on the 2^max_level leaves,
    where I_j = (levels[j], positions[j]) are distinct and sorted by level.

    Leading axes of `values` are batch axes. Each level's values are added
    onto a per-level array that is then doubled onto the next level, so a
    leaf adds its intervals coarsest first, starting from 0.0.
    """
    values = np.asarray(values, dtype=float)
    bounds = np.searchsorted(levels, np.arange(max_level + 2))
    acc = np.zeros(values.shape[:-1] + (1,))
    for level in range(max_level + 1):
        if level:
            acc = np.repeat(acc, 2, axis=-1)
        lo, hi = bounds[level], bounds[level + 1]
        acc[..., positions[lo:hi]] += values[..., lo:hi]
    return acc


def leaf_values(u, terms):
    """The library's sums of `terms` over u's support rows on the 2^N leaves:
    `haar._cells` on u's grid, each cell's value repeated over its leaves.
    Leaf-level tests compare these with `push_down` and the step functions."""
    sums, lengths = _cells(_support_grid(u), terms)
    return sums if lengths is None else np.repeat(sums, lengths, axis=-1)


def leaf_owners(max_level, levels, positions):
    """The deepest of the intervals (levels[j], positions[j]), sorted by
    level, containing each of the 2^max_level leaves, -1 for none: each row
    paints its slice of leaves in turn, so a deeper row paints last."""
    owner = np.full(1 << max_level, -1)
    for row, (level, position) in enumerate(zip(levels.tolist(), positions.tolist())):
        width = 1 << (max_level - level)
        owner[position * width : (position + 1) * width] = row
    return owner


def assert_read_only(result):
    """Every array a constructor's result keeps, as a field or as field
    rows (`haar._KeptRows`), refuses a write with ValueError; returns them."""
    state = vars(result)
    kept = [*state.values(), *state.get("_rows", {}).values()]
    arrays = [value for value in kept if isinstance(value, np.ndarray)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    return arrays


def cells(max_level, levels, positions, values):
    """`haar._cells` on the grid of the intervals (levels[j], positions[j]),
    sorted by level, from their arrays: on the atoms, one (interval, atom)
    pair per atom inside each interval, in support order, summed with
    `np.add.at`, so each atom adds its intervals coarsest first."""
    n = len(levels)
    if not _on_atoms(n, max_level):
        return push_down(max_level, levels, positions, values), None
    shift = max_level - levels
    starts = positions << shift
    endpoints = np.concatenate(
        ([0, 1 << max_level], starts, starts + (np.int64(1) << shift))
    )
    bounds, index = np.unique(endpoints, return_inverse=True)
    first = index[2 : n + 2]
    counts = index[n + 2 :] - first
    row = np.repeat(np.arange(n), counts)
    atom = np.arange(len(row)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    values = np.asarray(values, dtype=float)
    batch = values.shape[:-1]
    flat = values.reshape(math.prod(batch), n)
    width = len(bounds) - 1
    acc = np.zeros(len(flat) * width)
    cell = np.arange(len(flat))[:, None] * width + atom
    np.add.at(acc, cell.ravel(), flat[:, row].ravel())
    return acc.reshape(batch + (width,)), np.diff(bounds)


def cleaned_coeffs(max_level, dimension, coeffs):
    """The `coeffs` mapping the constructor keeps: sorted, validated per
    coefficient, zero vectors dropped."""
    cleaned = {}
    for interval in sorted(coeffs):
        if interval.level > max_level:
            raise ValueError(f"interval {interval} exceeds max level {max_level}")
        raw = coeffs[interval]
        vector = (
            (float(raw),)
            if isinstance(raw, (int, float))
            else tuple(float(c) for c in raw)
        )
        if len(vector) != dimension:
            raise ValueError(
                f"coefficient at {interval} has length {len(vector)}, "
                f"expected {dimension}"
            )
        if not all(math.isfinite(c) for c in vector):
            raise ValueError(f"coefficient at {interval} is not finite")
        if any(vector):
            cleaned[interval] = vector
    return cleaned


def _is_text(value):
    """A text entry of a coefficient, as the constructor read it before it
    also refused complex entries."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    dtype = getattr(value, "dtype", None)
    return isinstance(value, (str, bytes, bytearray)) or isinstance(dtype, np.dtype) and dtype.kind in "SU"


def construct(max_level, dimension, coeffs):
    """`HaarExpansion(max_level, dimension, coeffs)` as the constructor built
    it from lists, with `np.array` over the interval tuples and the value
    rows: the same validation loop, its checks in the same order, and the
    rows handed to `_from_rows`. Not for complex values, which it stored
    without their imaginary part (with a ComplexWarning)."""
    try:
        max_level, dimension = operator.index(max_level), operator.index(dimension)
    except TypeError:
        message = f"max_level and dimension must be integers, got {max_level!r}, {dimension!r}"
        raise TypeError(message) from None
    if max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {max_level}")
    if max_level > 61:
        raise ValueError(
            f"max_level {max_level} exceeds 61, the deepest level "
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
            raise ValueError(f"interval {interval} exceeds max level {max_level}")
        raw = coeffs[interval]
        if isinstance(raw, (int, float)):
            vector = (float(raw),)
        else:
            single = isinstance(raw, (str, bytes, bytearray)) or getattr(raw, "ndim", None) == 0
            entries = (raw,) if single else tuple(raw)
            if any(map(_is_text, entries)):
                raise TypeError(f"coefficient at {interval} is text, {raw!r}, not numbers")
            vector = tuple(map(float, entries))
        if len(vector) != dimension:
            raise ValueError(
                f"coefficient at {interval} has length {len(vector)}, "
                f"expected {dimension}"
            )
        rows.append(vector)
    keys = np.array(intervals, dtype=np.int64).reshape(len(intervals), 2)
    levels, positions = keys.T.copy()
    values = np.array(rows, dtype=float).reshape(len(rows), dimension)
    return HaarExpansion._from_rows(max_level, dimension, intervals, levels, positions, values)


def evaluate_haar(interval, t):
    """+1 on the left half of the interval, -1 on the right half, 0 outside."""
    if not interval.left <= t < interval.right:
        return 0
    midpoint = (interval.left + interval.right) / 2
    return 1 if t < midpoint else -1


def restrict(u, intervals):
    """Sub-expansion keeping only the given support intervals."""
    kept = {i: u.coeffs[i] for i in intervals if i in u.coeffs}
    return HaarExpansion(u.max_level, u.dimension, kept)


def coefficient_square(u, interval):
    return math.fsum(c * c for c in u.coeffs[interval])


def multiply(phi, u):
    """`coeffs` of phi * u, one product tuple per interval."""
    scaled = {}
    for interval, vector in u.coeffs.items():
        factor = phi.get(interval, 0.0)
        if factor:
            scaled[interval] = tuple(factor * c for c in vector)
    return cleaned_coeffs(u.max_level, u.dimension, scaled)


def _majority_cover_levels(omega, max_level):
    counts = omega.astype(np.int64)
    majority = [np.zeros(0, dtype=bool)] * (max_level + 1)
    level = max_level
    while True:
        majority[level] = 2 * counts > (1 << (max_level - level))
        if level == 0:
            break
        counts = counts[0::2] + counts[1::2]
        level -= 1
    cover = [np.zeros(0, dtype=np.int64)] * (max_level + 1)
    cover[0] = np.where(majority[0], 0, -1)
    for lvl in range(1, max_level + 1):
        inherited = np.repeat(cover[lvl - 1], 2)
        cover[lvl] = np.where(
            inherited >= 0, inherited, np.where(majority[lvl], lvl, -1)
        )
    return cover


def stopping_time_pieces(u):
    """The stopping-time pieces, assigning one pending interval at a time."""
    max_level = u.max_level
    sums = push_down(max_level, u.levels, u.positions, u.squares)
    min_coeff = min(coefficient_square(u, i) for i in u.coeffs)
    max_val = float(sums.max())
    if not (min_coeff > 0.0 and max_val < math.inf):
        raise OverflowError("the coefficient squares leave the float range")
    k_start = min(math.ceil(0.5 * math.log2(max_val)) + 1, 550)
    k_stop = max(math.floor(0.5 * math.log2(min_coeff)) - 1, -550)

    pending = set(u.coeffs)
    anchors = {}
    for k in range(k_start, k_stop - 1, -1):
        exponent = 2 * k
        if exponent > 1023:
            threshold = math.inf
        elif exponent < -1074:
            threshold = 0.0
        else:
            threshold = math.ldexp(1.0, exponent)
        omega = sums > threshold
        if not omega.any():
            continue
        cover = _majority_cover_levels(omega, max_level)
        assigned = []
        for interval in pending:
            anchor_level = int(cover[interval.level][interval.position])
            if anchor_level >= 0:
                anchor_pos = interval.position >> (interval.level - anchor_level)
                anchors[interval] = (k, anchor_level, anchor_pos)
                assigned.append(interval)
        pending.difference_update(assigned)
        if not pending:
            break
    if pending:
        raise VerificationError(f"stopping time failed to assign {len(pending)} intervals")

    groups = {}
    for interval, anchor in anchors.items():
        groups.setdefault(anchor, []).append(interval)

    pieces = []
    for members in groups.values():
        family = IntervalFamily(members, max_level=max_level)
        root = []
        blocks = {}
        for interval, up in zip(family, dyadic_oracle.parents(family)):
            root.append(interval if up < 0 else root[up])
            blocks.setdefault(root[-1], []).append(interval)
        for top, block in blocks.items():
            pieces.append(AtomicPiece(IntervalFamily(block, max_level=max_level), top))
    pieces.sort(key=lambda piece: piece.top)
    return tuple(pieces)
