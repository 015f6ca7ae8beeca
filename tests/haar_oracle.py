"""Reference implementations of the expansion hot paths, kept from the
per-coefficient loops that the support arrays replaced: the constructor's
validation loop, the multiplier, and the set-based stopping-time
assignment. The tests compare the library against them; they are slow and
not part of the package.
"""

import math

import numpy as np

from haarmult import IntervalFamily
from haarmult.atomic import AtomicPiece
from haarmult.errors import VerificationError
from haarmult.haar import square_leaf_sums


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
    sums = square_leaf_sums(u)
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
        for interval, up in zip(family, family.parents()):
            root.append(interval if up < 0 else root[up])
            blocks.setdefault(root[-1], []).append(interval)
        for top, block in blocks.items():
            pieces.append(AtomicPiece(IntervalFamily(block, max_level=max_level), top))
    pieces.sort(key=lambda piece: piece.top)
    return tuple(pieces)
