"""Reference implementations of the decomposition verifier and the weight
assembly, kept from the per-interval code that the block rows replaced: the
set-based partition and tops loop, the block statistics with their own row
lookup and their dense leaf sums, and the weights written one interval at a
time through the squared length of each coefficient; `block_stats`, the
block statistics one `_cells` call per block, each block on its own grid,
which the pass on the support's grid replaced for clean decompositions and
which stays the library's path for every other; `is_clean`, which
decompositions take that pass; `sup_square`, the dense leaf maximum of
the square function; and `majority_cover`, the cover that laid out the
ancestors of the support with one `np.unique` per level and handed each
majority level down one level at a time, which the support's preorder trie
replaced on the atoms. The tests compare the library against them; they are
slow and not part of the package.
"""

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from haarmult import HaarExpansion, IntervalFamily, PietschMeasure, carleson_constant, is_block
from haarmult.atomic import _ROUNDING_RTOL, DecompositionReport, _block_stats, _member_rows
from haarmult.atomic import appendix_constant
from haarmult.haar import _cell_sum, _Grid, _support_grid, hp_norm

import haar_oracle


def sup_square(u):
    """Largest leaf value of the square function, 0 for the zero expansion."""
    if u.is_zero:
        return 0.0
    leaves = haar_oracle.push_down(u.max_level, u.levels, u.positions, u.squares)
    return math.sqrt(leaves.max())


def _square(u, interval):
    """The squared length at `interval`, 0 outside the support."""
    if interval not in u.coeffs:
        return 0.0
    return haar_oracle.coefficient_square(u, interval)


def piece_stats(u, piece, p, rows):
    """(norm_p^p, sup of square function) for one block; `rows` maps each
    support interval to its row in the support arrays."""
    top = piece.top
    index = np.array([rows.get(i, -1) for i in piece.block], dtype=np.int64)
    index = index[index >= 0]
    levels = u.levels[index] - top.level
    positions = u.positions[index]
    inside = (levels >= 0) & (positions >> np.maximum(levels, 0) == top.position)
    index, levels, positions = index[inside], levels[inside], positions[inside]
    positions = positions - (top.position << levels)
    local = haar_oracle.push_down(u.max_level - top.level, levels, positions, u.squares[index])
    norm_p_p = float(np.sum(local ** (p / 2.0))) * 2.0 ** (-u.max_level)
    return norm_p_p, math.sqrt(float(local.max()))


def block_stats(u, top, rows, p):
    """(norm_p^p, sup of square function, whether every supported member
    lies inside the top) for one block, given the support row of each member
    in block order (-1 outside the support): one cell sum per block
    (`haar_oracle.cells`), on the grid `_cells` picks for the block alone."""
    rows = rows[rows >= 0]
    levels = u.levels[rows] - top.level
    positions = u.positions[rows]
    inside = (levels >= 0) & (positions >> np.maximum(levels, 0) == top.position)
    all_inside = bool(inside.all())
    rows, levels, positions = rows[inside], levels[inside], positions[inside]
    positions = positions - (top.position << levels)
    local, lengths = haar_oracle.cells(
        u.max_level - top.level, levels, positions, u.squares[rows]
    )
    norm_p_p = float(_cell_sum(local ** (p / 2.0), lengths)) * 2.0 ** (-u.max_level)
    return norm_p_p, math.sqrt(float(local.max())), all_inside


# The relative tolerance of a block norm summed on the support's grid
# against the block's own grid: where one is the leaves and the other the
# atoms, the same values sum over other cells, so only the rounding
# differs; twice the pairwise-sum bound 61 * 2^-53 at 2^61 cells.
BLOCK_NORM_RTOL = 122 * 2.0**-53


def is_clean(u, dec):
    """Whether dec's blocks partition u's support, each a block relative to
    it (`is_block`) whose top is a member containing it: the decompositions
    whose statistics the library sums on the support's grid."""
    members = [interval for block, _ in dec.pieces for interval in block]
    if sorted(members) != list(u.support):
        return False
    support = IntervalFamily(u.support, u.max_level)
    return all(
        top in block and all(map(top.contains, block)) and is_block(block, support)
        for block, top in dec.pieces
    )


def assert_block_stats(u, dec, p):
    """`atomic._block_stats` of dec against `block_stats` per block: sups
    and inside verdicts exactly equal, and norms too on the per-block path;
    on a clean decomposition, summed on u's grid, the norms within
    BLOCK_NORM_RTOL. Returns `is_clean(u, dec)`."""
    rows, block, tops, tops_in_blocks = _member_rows(u, dec)
    grid = _support_grid(u)
    _, _, norms, sups, inside = _block_stats(
        u, p, rows, block, tops, tops_in_blocks, grid, u.squares
    )
    want = [block_stats(u, top, rows[block == b], p) for b, top in enumerate(tops)]
    assert sups.tolist() == [sup for _, sup, _ in want]
    assert inside.tolist() == [verdict for _, _, verdict in want]
    want_norms = [norm for norm, _, _ in want]
    clean = is_clean(u, dec)
    if clean:
        np.testing.assert_allclose(norms, want_norms, rtol=BLOCK_NORM_RTOL, atol=0)
    else:
        assert norms == want_norms
    return clean


def verify_decomposition(u, p, dec):
    """The report of `haarmult.verify_decomposition`, field for field."""
    if not 0 < p <= 2:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    if dec.max_level != u.max_level or dec.dimension != u.dimension:
        raise ValueError("decomposition does not match the expansion")

    support = set(u.coeffs)
    seen = set()
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
        weights = {}
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

    family = IntervalFamily(u.support, u.max_level)
    blocks_ok = partition_ok and all(
        is_block(piece.block, family) for piece in dec.pieces
    )

    norm_p = hp_norm(u, p)
    norm_p_p = norm_p**p
    block_sum = 0.0
    top_sum = 0.0
    chain_middle_ok = True
    rows = dict(zip(u.coeffs, range(len(u.coeffs))))
    for piece in dec.pieces:
        piece_norm_p, piece_sup = piece_stats(u, piece, p, rows)
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


def assemble(u, p, dec, exponent):
    """The unvalidated measure of `haarmult.pietsch._assemble`."""
    norm_p = hp_norm(u, p)
    norm_p_p = norm_p**p
    block_factors = []
    total = 0.0
    for block, top in dec.pieces:
        l2_sq = math.fsum(_square(u, i) * 2.0 ** (-i.level) for i in block)
        top_measure = 2.0 ** (-top.level)
        factor = top_measure ** (1.0 - p / 2.0) * l2_sq ** ((p - 2.0) / 2.0)
        block_factors.append((factor, l2_sq))
        total += top_measure ** (1.0 - p / 2.0) * l2_sq ** (p / 2.0)
    normalizer = max(1.0, total / norm_p_p)
    weights = {}
    for (factor, _), (block, _) in zip(block_factors, dec.pieces):
        scale = factor / (normalizer * norm_p_p)
        for interval in block:
            weights[interval] = scale * _square(u, interval) * 2.0 ** (-interval.level)
    return PietschMeasure(
        weights=dict(sorted(weights.items())),
        normalizer=normalizer,
        exponent=exponent,
    )


def majority_cover(u: HaarExpansion, grid: _Grid) -> Callable[[np.ndarray], np.ndarray]:
    """A function taking a mask omega on the cells of the grid of u's
    support to the level of each support row's maximal majority interval,
    -1 for a row with none.

    A dyadic J has majority if more than half of its leaves lie in omega;
    the maximal such intervals are pairwise disjoint and their union contains
    every dyadic interval that is a subset of the union, so the maximal one
    containing a row is its coarsest ancestor-or-self with majority.

    On the leaf grid this reads `haar_oracle._majority_cover_levels`, whose
    levels laid end to end are the heap order, and needs no set-up. On the atoms, the ancestors of the support rows are laid out
    once, level by level, with each one's parent; per mask, |omega ∩ J| is
    an int64 prefix sum of the omega cell lengths read at J's endpoints (a
    cell holding an endpoint counts up to the endpoint), and one top-down
    pass per level hands each majority level down to the descendants.
    """
    max_level, lengths, row_bounds = u.max_level, grid.lengths, grid.bounds
    if lengths is None:
        heap = (1 << u.levels) - 1 + u.positions
        return lambda omega: np.concatenate(
            haar_oracle._majority_cover_levels(omega, max_level)
        )[heap]
    finest = int(u.levels[-1])
    # The ancestors level by level, finest first: a level's nodes are its
    # support rows and the parents of the nodes one level down, sorted and
    # deduplicated. Each merged entry's index among them gives the node of
    # a support row (rows_at) or the parent of a node below (parents_at).
    layers = [np.zeros(0, dtype=np.int64)] * (finest + 2)
    rows_at = layers[: finest + 1]
    parents_at = [np.zeros(1, dtype=np.int64)] * (finest + 1)  # the root's is unread
    for level in range(finest, -1, -1):
        own = u.positions[row_bounds[level] : row_bounds[level + 1]]
        merged = np.concatenate((own, layers[level + 1] >> 1))
        layers[level], index = np.unique(merged, return_inverse=True)
        rows_at[level] = index[: len(own)]
        if level < finest:
            parents_at[level + 1] = index[len(own) :]
    sizes = list(map(len, layers[:-1]))
    offsets = np.cumsum([0] + sizes).tolist()
    level = np.repeat(np.arange(finest + 1), sizes)
    position = np.concatenate(layers)
    parent = np.concatenate(
        [up + offset for up, offset in zip(parents_at, [0] + offsets)]
    )
    row_node = np.concatenate([at + offset for at, offset in zip(rows_at, offsets)])
    width = 1 << (max_level - level)
    starts = position << (max_level - level)

    # the cell holding each endpoint (the last cell for 2^N) and how many of
    # its leaves lie before the endpoint; starts first, then ends
    cell_bounds = np.concatenate(([0], np.cumsum(lengths)))
    endpoints = np.concatenate((starts, starts + width))
    cell = np.searchsorted(cell_bounds, endpoints, side="right") - 1
    cell = np.minimum(cell, len(lengths) - 1)
    into = endpoints - cell_bounds[cell]

    def cover(omega: np.ndarray) -> np.ndarray:
        before = np.concatenate(([0], np.cumsum(np.where(omega, lengths, 0))))
        counted = before[cell] + np.where(omega[cell], into, 0)
        inside = counted[len(level) :] - counted[: len(level)]
        found = np.where(2 * inside > width, level, -1)
        for lo, hi in zip(offsets[1:], offsets[2:]):
            up = found[parent[lo:hi]]
            found[lo:hi] = np.where(up >= 0, up, found[lo:hi])
        return found[row_node]

    return cover
