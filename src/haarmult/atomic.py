"""Stopping-time decomposition of a Haar expansion into blocks with dyadic tops.

The construction is a level-set scheme on the square function S(u):

  * Omega_k = {t : S(u)(t) > 2^k} for integer k,
  * Omega~_k = union of the maximal dyadic J with |J ∩ Omega_k| > |J|/2,
  * each support interval I gets the generation k(I) = max{k : I ⊆ Omega~_k},
  * within one generation, intervals are grouped by the maximal member of
    Omega~_k containing them, and each group is split at its maximal
    elements; every maximal element becomes the top of one block.

Generations are constant along containment chains inside a group, so the
block condition holds by construction. The guarantees (partition, block
property, tops' Carleson constant <= 4, and the two-sided norm chain) are
still re-checked on every output; `decompose` refuses to return an
unverified decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicInterval, IntervalFamily, carleson_constant, is_block
from .errors import VerificationError, ZeroInputError
from .haar import HaarExpansion, hp_norm, push_down, square_function, square_leaf_sums

# Relative slack for inequalities that are exact in real arithmetic and only
# subject to floating-point rounding.
_ROUNDING_RTOL = 1e-12


class AtomicPiece(NamedTuple):
    block: IntervalFamily
    top: DyadicInterval


@dataclass(frozen=True)
class AtomicDecomposition:
    """Ordered blocks partitioning the Haar support, one dyadic top each."""

    pieces: tuple[AtomicPiece, ...]
    max_level: int
    dimension: int

    def tops(self) -> list[DyadicInterval]:
        return [piece.top for piece in self.pieces]


@dataclass(frozen=True)
class DecompositionReport:
    """Post-hoc verification results for one decomposition."""

    partition_ok: bool
    blocks_ok: bool
    tops_ok: bool
    tops_carleson: Fraction
    tops_carleson_ok: bool
    chain_lower_ok: bool
    chain_middle_ok: bool
    lower_constant: float
    norm_p: float
    block_norm_sum_p: float
    top_bound_sum: float
    observed_ratio: float

    @property
    def passed(self) -> bool:
        return (
            self.partition_ok
            and self.blocks_ok
            and self.tops_ok
            and self.tops_carleson_ok
            and self.chain_lower_ok
            and self.chain_middle_ok
        )

    def as_dict(self) -> dict:
        return {
            "partition_ok": self.partition_ok,
            "blocks_ok": self.blocks_ok,
            "tops_ok": self.tops_ok,
            "tops_carleson": float(self.tops_carleson),
            "tops_carleson_ok": self.tops_carleson_ok,
            "chain_lower_ok": self.chain_lower_ok,
            "chain_middle_ok": self.chain_middle_ok,
            "lower_constant": self.lower_constant,
            "norm_p": self.norm_p,
            "block_norm_sum_p": self.block_norm_sum_p,
            "top_bound_sum": self.top_bound_sum,
            "observed_ratio": self.observed_ratio,
            "passed": self.passed,
        }


def _majority_cover_levels(omega: np.ndarray, max_level: int) -> np.ndarray:
    """For each node (level, pos), at the heap index 2^level - 1 + pos: the
    level of the maximal majority interval containing it, or -1 if none.

    A dyadic J has majority if more than half of its leaves lie in omega; the
    maximal such intervals are pairwise disjoint and their union contains
    every dyadic interval that is a subset of the union.
    """
    counts = omega.astype(np.int64)
    majority: list[np.ndarray] = [np.zeros(0, dtype=bool)] * (max_level + 1)
    level = max_level
    while True:
        majority[level] = 2 * counts > (1 << (max_level - level))
        if level == 0:
            break
        counts = counts[0::2] + counts[1::2]
        level -= 1
    cover = np.empty((2 << max_level) - 1, dtype=np.int8)
    cover[0] = 0 if majority[0][0] else -1
    for lvl in range(1, max_level + 1):
        inherited = np.repeat(cover[(1 << (lvl - 1)) - 1 : (1 << lvl) - 1], 2)
        cover[(1 << lvl) - 1 : (2 << lvl) - 1] = np.where(
            inherited >= 0,
            inherited,
            np.where(majority[lvl], np.int8(lvl), np.int8(-1)),
        )
    return cover


def _stopping_time_pieces(u: HaarExpansion) -> tuple[AtomicPiece, ...]:
    max_level = u.max_level
    sums = square_leaf_sums(u)
    min_coeff = float(u.squares.min())
    max_val = float(sums.max())
    if not (min_coeff > 0.0 and max_val < math.inf):
        raise OverflowError("the coefficient squares leave the float range")
    # 4^k brackets: start above the largest square-function value, stop once
    # the threshold undercuts every coefficient (then every support interval
    # is fully covered and gets assigned).
    k_start = min(math.ceil(0.5 * math.log2(max_val)) + 1, 550)
    k_stop = max(math.floor(0.5 * math.log2(min_coeff)) - 1, -550)

    # each row's anchor: the maximal member of Omega~_k containing it at the
    # largest k whose threshold covers it, as a heap index 2^level - 1 + pos
    heap = (1 << u.levels) - 1 + u.positions
    pending = np.arange(len(heap))
    anchor_level = np.empty(len(heap), dtype=np.int64)
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
        found = _majority_cover_levels(omega, max_level)[heap[pending]]
        hit = found >= 0
        anchor_level[pending[hit]] = found[hit]
        pending = pending[~hit]
        if not len(pending):
            break
    if len(pending):  # unreachable: the k_stop threshold covers all coefficients
        raise VerificationError(f"stopping time failed to assign {len(pending)} intervals")
    anchor = (1 << anchor_level) - 1 + (u.positions >> (u.levels - anchor_level))

    # A block is a group of rows with equal (k, anchor) cut at its maximal
    # members, so a row's block top is the coarsest row of its group that
    # contains it. Nested rows with one anchor have one k (at the inner
    # row's k the anchor covers the outer row too), so equal anchors suffice.
    # Rows are in heap order: a binary search finds a row's ancestor at a
    # given level among them, and coarser levels come first.
    top = np.full(len(heap), -1)
    for level in range(max_level + 1):
        rows = np.flatnonzero((top < 0) & (u.levels >= level))
        code = (1 << level) - 1 + (u.positions[rows] >> (u.levels[rows] - level))
        at = np.minimum(np.searchsorted(heap, code), len(heap) - 1)
        hit = (heap[at] == code) & (anchor[at] == anchor[rows])
        top[rows[hit]] = at[hit]
    # every row is its own ancestor, so all are assigned; tops in support
    # order give the pieces sorted by top
    order = np.argsort(top, kind="stable")
    starts = np.flatnonzero(np.diff(top[order])) + 1
    support = u.support
    return tuple(
        AtomicPiece(
            IntervalFamily([support[j] for j in block.tolist()], max_level=max_level),
            support[top[block[0]]],
        )
        for block in np.split(order, starts)
    )


def sup_square(u: HaarExpansion) -> float:
    """Largest leaf value of the square function."""
    if u.is_zero:
        return 0.0
    return square_function(u).sup()


def appendix_constant(p: float, carleson: float | Fraction) -> float:
    """1 + 4^(1/p) * sum_{l>=1} r^l with r = 2^(-2 / (p * (4*carleson + 1))).

    Closed form of the geometric series controlling how much the norm of a
    sum of blocks can exceed the p-sum of the block norms; increasing in both
    p and the Carleson constant.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if carleson < 1:
        raise ValueError(f"Carleson constant must be at least 1, got {carleson}")
    ratio = 2.0 ** (-2.0 / (p * (4.0 * float(carleson) + 1.0)))
    return 1.0 + 4.0 ** (1.0 / p) * ratio / (1.0 - ratio)


def _piece_stats(
    u: HaarExpansion, piece: AtomicPiece, p: float, rows: dict[DyadicInterval, int]
) -> tuple[float, float]:
    """(norm_p^p, sup of square function) for one block; `rows` maps each
    support interval to its row in the support arrays.

    The square function of a block vanishes outside its top, so the leaf sum
    only runs over the top; members outside the top (a corrupt piece, caught
    by `tops_ok`) and outside the support (whose square is 0) are left out.
    """
    top = piece.top
    index = np.array([rows.get(i, -1) for i in piece.block], dtype=np.int64)
    index = index[index >= 0]
    levels = u.levels[index] - top.level
    positions = u.positions[index]
    inside = (levels >= 0) & (positions >> np.maximum(levels, 0) == top.position)
    index, levels, positions = index[inside], levels[inside], positions[inside]
    positions = positions - (top.position << levels)
    local = push_down(u.max_level - top.level, levels, positions, u.squares[index])
    norm_p_p = float(np.sum(local ** (p / 2.0))) * 2.0 ** (-u.max_level)
    return norm_p_p, math.sqrt(float(local.max()))


def verify_decomposition(
    u: HaarExpansion, p: float, dec: AtomicDecomposition
) -> DecompositionReport:
    """Re-check every guarantee of a decomposition against its source.

    Checks: (a) the blocks partition the Haar support, (b) every top is the
    union of its block and the tops' Carleson constant is <= 4, (c) the lower
    norm chain holds (with constant 1 for scalar expansions or p <= 1, with
    the appendix constant otherwise), (d) the middle inequality
    sum ||u_i||^p <= sum |I_i| * sup S(u_i)^p holds, (e) every block is a
    block relative to the support, (f) the observed upper-chain ratio.
    """
    if not 0 < p <= 2:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    if dec.max_level != u.max_level or dec.dimension != u.dimension:
        raise ValueError("decomposition does not match the expansion")

    support = set(u.coeffs)
    seen: set[DyadicInterval] = set()
    partition_ok = True
    tops_ok = True
    for block, top in dec.pieces:
        members = set(block)
        if not members or (members & seen) or not members <= support:
            partition_ok = False
        seen |= members
        if top not in members or not all(top.contains(i) for i in members):
            tops_ok = False
    if seen != support:
        partition_ok = False

    tops = dec.tops()
    distinct = IntervalFamily(tops, max_level=dec.max_level)
    if len(distinct) == len(tops):
        tops_carleson = carleson_constant(distinct) if tops else Fraction(0)
    else:
        # duplicate tops: fall back to the multiset definition
        weights: dict[DyadicInterval, int] = {}
        for top in tops:
            weights[top] = weights.get(top, 0) + 1
        tops_carleson = max(
            sum(
                (weights[j] * j.measure for j in weights if i.contains(j)),
                Fraction(0),
            )
            / i.measure
            for i in weights
        )
    tops_carleson_ok = tops_carleson <= 4

    support_family = u.support_family()
    blocks_ok = partition_ok and all(
        is_block(piece.block, support_family) for piece in dec.pieces
    )

    norm_p = hp_norm(u, p)
    norm_p_p = norm_p**p
    block_sum = 0.0
    top_sum = 0.0
    chain_middle_ok = True
    rows = dict(zip(u.coeffs, range(len(u.coeffs))))
    for piece in dec.pieces:
        piece_norm_p, piece_sup = _piece_stats(u, piece, p, rows)
        top_measure = 2.0 ** (-piece.top.level)
        piece_bound = top_measure * piece_sup**p
        if piece_norm_p > piece_bound * (1 + _ROUNDING_RTOL):
            chain_middle_ok = False
        block_sum += piece_norm_p
        top_sum += piece_bound

    if u.dimension == 1 or p <= 1:
        lower_constant = 1.0
    else:
        lower_constant = appendix_constant(p, max(tops_carleson, 1)) ** (-p)
    chain_lower_ok = lower_constant * norm_p_p <= block_sum * (1 + _ROUNDING_RTOL)
    observed_ratio = top_sum / norm_p_p if norm_p_p else math.inf

    return DecompositionReport(
        partition_ok=partition_ok,
        blocks_ok=blocks_ok,
        tops_ok=tops_ok,
        tops_carleson=tops_carleson,
        tops_carleson_ok=tops_carleson_ok,
        chain_lower_ok=chain_lower_ok,
        chain_middle_ok=chain_middle_ok,
        lower_constant=lower_constant,
        norm_p=norm_p,
        block_norm_sum_p=block_sum,
        top_bound_sum=top_sum,
        observed_ratio=observed_ratio,
    )


def decompose(u: HaarExpansion, p: float) -> AtomicDecomposition:
    """Build the stopping-time decomposition of a nonzero expansion.

    The output always passes `verify_decomposition`; a verification failure
    raises instead of returning a bad decomposition.
    """
    if u.is_zero:
        raise ZeroInputError("cannot decompose the zero expansion")
    if not 0 < p <= 2:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    dec = AtomicDecomposition(
        pieces=_stopping_time_pieces(u),
        max_level=u.max_level,
        dimension=u.dimension,
    )
    report = verify_decomposition(u, p, dec)
    if not report.passed:
        raise VerificationError(
            f"decomposition failed verification: {report.as_dict()}"
        )
    return dec
