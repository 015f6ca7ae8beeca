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
unverified decomposition. A decomposition built here is kept in row form
by `haar._KeptRows._from_rows`, whose docstring states what a result
keeps: one block id per support row and the support row of each block's
top, with the support they belong to and the grid. The verifier, the
weights in `pietsch` and the CLI's h2 check read that form when it is on
u's support (`_KeptRows._of_support`), and `pieces` is built from it on
first read; each that needs a block's rows together takes them from one
sort, `_block_order`. The h2 check passes the squares of phi * u to the
verifier's block pass on u's own grid. `verify_decomposition` is the one
verification core, and `decompose` verifies through it: a decomposition
given as pieces is mapped onto the support rows once (`_member_rows`) and
checked the same way. The constant of the lower norm chain is
`_lower_constant`, which the vector multiplier check of `pietsch` reads too.

Every function of the square sums runs on the grid of u's support
(`haar._Grid`): the atoms cut out by the support's endpoints when the
support is sparse for its depth, else the leaves. `decompose` builds it
once and shares it between the stopping time, the majority cover and the
verification, and the decomposition keeps it, so `verify_decomposition`
given a decomposition of u's support builds none (`_KeptRows._grid_for`).
No path here allocates one entry per leaf when the grid is the atoms. A
support row's anchor for Omega_k is its coarsest ancestor-or-self J with
2 |Omega_k ∩ J| > |J|. On the atoms the candidates J are the nodes of the
support's preorder trie (`_support_trie`), every ancestor-or-self of the
support once, with no loop over levels: each J holds a run of support rows
in preorder, and Omega_k, a threshold on the cell sums, is constant on the
cells each row owns, so |Omega_k ∩ J| is an int64 prefix sum of the own
lengths of the rows in Omega_k over J's run, plus the rest of J where J's
support parent is in Omega_k; on the leaves the dense majority cover
(`_majority_cover_levels`) is cheaper and gives the same anchors. A
block's statistics are sums of its own square function over the cells
inside its top. For a clean
decomposition, as `decompose` builds, they run on the grid of u's support
(`_block_stats`): the parent table cut at the block tops makes each block
one tree, one `_tree_sums` on it gives every row its block's running sum,
and each cell walks up through its blocks, one step per block. Sups are
then bit for bit those of one `_cells` call per block on the block's own
grid, and so are norms where the block's own grid is of the kind of u's
(leaves or atoms); elsewhere they agree to rounding. Any other
decomposition still takes one `_cells` call per block.

Containment inside the support is one array, each row's nearest support
ancestor: the grid's parent table, painted on the leaf grid and from
`dyadic._nearest_ancestors` on the atoms. The stopping time reads it to
find block tops by pointer jumping, and the verification inside
`decompose` reads the same table; the verifier's block check is one pass
over it: a block passes iff exactly one of its rows has no parent in the
same block. `dyadic.is_block` is the reference predicate for that check;
no path in the package calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import DyadicInterval, IntervalFamily, _packed_carleson
from .errors import VerificationError, ZeroInputError
from .haar import HaarExpansion, _cells, _check_exponents, _Grid, _KeptRows, _norm
from .haar import _support_grid, _tree_sums

# Relative slack for inequalities that are exact in real arithmetic and only
# subject to floating-point rounding.
_ROUNDING_RTOL = 1e-12


class AtomicPiece(NamedTuple):
    block: IntervalFamily
    top: DyadicInterval


def _block_order(block: np.ndarray, n_blocks: int) -> tuple[np.ndarray, list[int]]:
    """The indices of `block` sorted by block, ascending within each, and
    where each of the `n_blocks` blocks' runs ends in that order: block b's
    indices are `order[ends[b - 1]:ends[b]]` (from 0 for b = 0)."""
    # distinct keys sort as a stable sort of the block ids would, in a
    # fraction of its time
    order = np.argsort(block * len(block) + np.arange(len(block)))
    return order, np.cumsum(np.bincount(block, minlength=n_blocks)).tolist()


@dataclass(frozen=True)
class AtomicDecomposition(_KeptRows):
    """Ordered blocks partitioning the Haar support, one dyadic top each.

    `AtomicDecomposition(pieces, max_level, dimension)` keeps the given
    pieces as a tuple. `decompose` builds the row form instead
    (`haar._KeptRows`): the support it was built on, one block id per
    support row, the support row of each block's top, blocks ordered by
    their tops, and the grid of the support. There `pieces` is built
    on first read and kept. Two decompositions are equal when their pieces,
    max levels and dimensions are.
    """

    pieces: tuple[AtomicPiece, ...]
    max_level: int
    dimension: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def __getattr__(self, name: str) -> object:
        """The row form's `pieces`, built on first read and kept."""
        state = vars(self)
        if name != "pieces" or "_block" not in state:
            return super().__getattr__(name)
        support, top_rows = state["_support"], state["_top_rows"]
        order, ends = _block_order(state["_block"], len(top_rows))
        members = list(map(support.__getitem__, order.tolist()))
        state["pieces"] = pieces = tuple(
            AtomicPiece(
                IntervalFamily._from_sorted(tuple(members[lo:hi]), self.max_level),
                support[top],
            )
            for lo, hi, top in zip([0] + ends, ends, top_rows.tolist())
        )
        return pieces

    def tops(self) -> list[DyadicInterval]:
        top_rows = vars(self).get("_top_rows")
        if top_rows is None:
            return [piece.top for piece in self.pieces]
        return list(map(self._support.__getitem__, top_rows.tolist()))


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
        """The fields in order, the Carleson constant as a float, then
        `passed`."""
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        out["tops_carleson"] = float(self.tops_carleson)
        out["passed"] = self.passed
        return out


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


def _support_trie(
    max_level: int, levels: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trie of a support sorted by (level, position): (its rows in
    preorder, by left end and coarsest first; their left ends in leaves, in
    that order; per node, its level and the index in that order of the row
    that added it). Each row adds its ancestors-or-self finer than its
    deepest common ancestor with the row before, so the nodes are every
    ancestor-or-self of the support once, in preorder: at most n (N + 1)."""
    starts = positions << (max_level - levels)
    order = np.argsort(starts, kind="stable")  # rows come coarsest first
    starts, levels = starts[order], levels[order]
    # the deepest common ancestor of two rows lies above the highest bit in
    # which their left ends differ and at neither's level. That bit's length
    # is the float exponent, less one where the float rounded up to a power
    # of two; equal left ends give -1, which puts it past every level.
    differ = starts[1:] ^ starts[:-1]
    bits = np.frexp(differ.astype(float))[1].astype(np.int64)
    bits -= differ < np.left_shift(1, np.maximum(bits - 1, 0))
    common = np.minimum(max_level - bits, np.minimum(levels[1:], levels[:-1]))
    common = np.concatenate(([-1], common))
    count = levels - common
    first = np.cumsum(count) - count
    added_by = np.repeat(np.arange(len(levels)), count)
    node_level = np.arange(len(added_by)) + np.repeat(common + 1 - first, count)
    return order, starts, added_by, node_level


def _majority_cover(u: HaarExpansion, grid: _Grid) -> Callable[[np.ndarray], np.ndarray]:
    """A function taking a mask omega on the cells of the grid of u's
    support to the level of each support row's maximal majority interval,
    -1 for a row with none. On the atoms omega must be constant on each
    row's own cells (those it owns, `grid.owner`) and false on the cells of
    no row, as every `sums > t` with t >= 0 is.

    A dyadic J has majority if more than half of its leaves lie in omega;
    the maximal such intervals are pairwise disjoint and their union contains
    every dyadic interval that is a subset of the union, so the maximal one
    containing a row is its coarsest ancestor-or-self with majority.

    On the leaf grid this reads `_majority_cover_levels`, which needs no
    set-up. On the atoms the set-up lays out `_support_trie`, every
    ancestor-or-self of the support once, in preorder, with no loop over
    levels. A node J holds the rows [a, b) of the trie's row order, where
    row a added it and b is the first row starting at or past J's end. Per
    mask, in int64: |omega ∩ J| is the own lengths of the omega rows summed
    over [a, b), plus the rest of J, the part no row in it covers, where J's
    support parent is in omega; a majority node is maximal when no majority
    node before it reaches past its left end, and each row takes the
    maximal node whose [a, b) holds it.
    """
    max_level, lengths, owner = u.max_level, grid.lengths, grid.owner
    if lengths is None:
        heap = (1 << u.levels) - 1 + u.positions
        return lambda omega: _majority_cover_levels(omega, max_level)[heap]
    n = len(u.levels)
    order, starts, a, node_level = _support_trie(max_level, u.levels, u.positions)
    shift = max_level - node_level
    node_start = starts[a] >> shift << shift
    width = np.left_shift(1, shift)
    end = node_start + width
    b = np.searchsorted(starts, end)

    # each row's own length and one of its own cells (any cell where it
    # owns none: its length 0 makes omega there unread), in preorder
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    owned = np.flatnonzero(owner >= 0)
    own_length = np.zeros(n, dtype=np.int64)
    np.add.at(own_length, rank[owner[owned]], lengths[owned])
    own_cell = np.zeros(n, dtype=np.int64)
    own_cell[rank[owner[owned]]] = owned
    covered = np.concatenate(([0], np.cumsum(own_length)))
    # the rest of J, outside its rows, is its support parent's own, or no
    # row's; it is empty where J is a row
    up = grid.parent[order]
    rest = np.where(up[a] >= 0, width - (covered[b] - covered[a]), 0)
    up_cell = own_cell[rank[up]][a]

    def cover(omega: np.ndarray) -> np.ndarray:
        held = np.concatenate(([0], np.cumsum(np.where(omega[own_cell], own_length, 0))))
        inside = held[b] - held[a] + np.where(omega[up_cell], rest, 0)
        majority = 2 * inside > width
        reach = np.maximum.accumulate(np.where(majority, end, 0))
        majority[1:] &= reach[:-1] <= node_start[1:]
        # the maximal nodes' row ranges are disjoint: mark where each
        # starts and ends with its level + 1, and a running sum fills them
        top = np.flatnonzero(majority)
        marks = np.zeros(n + 1, dtype=np.int64)
        marks[a[top]] = node_level[top] + 1
        marks[b[top]] -= node_level[top] + 1
        return np.cumsum(marks[:-1])[rank] - 1

    return cover


def _stopping_time(u: HaarExpansion, grid: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """The stopping-time blocks of u, on the grid of its support, as (block
    id per support row, support row of each block's top); blocks are ordered
    by their tops."""
    sums, _ = _cells(grid, u.squares)
    if not (float(u.squares.min()) > 0.0 and float(sums.max()) < math.inf):
        raise OverflowError("the coefficient squares leave the float range")

    # each row's anchor: the maximal member of Omega~_k containing it at the
    # largest k whose threshold covers it, as a heap index 2^level - 1 + pos.
    # Only the k where Omega_k grows matter: the next is the power of 4 just
    # below the largest cell value not yet in Omega.
    cover = _majority_cover(u, grid)
    pending = np.arange(len(u.support))
    anchor_level = np.empty(len(u.support), dtype=np.int64)
    omega = np.zeros(len(sums), dtype=bool)
    while len(pending):
        value = float(np.where(omega, 0.0, sums).max())
        if not value:  # unreachable: the support's cells are positive
            break
        # 4^k < m 2^e iff 2k <= e - 1 - [m = 1/2]; ldexp is 0.0 below the
        # subnormals, which selects the same cells as 4^k
        mantissa, exponent = math.frexp(value)
        k = (exponent - 1 - (mantissa == 0.5)) // 2
        omega = sums > math.ldexp(1.0, 2 * k)
        found = cover(omega)[pending]
        hit = found >= 0
        anchor_level[pending[hit]] = found[hit]
        pending = pending[~hit]
    if len(pending):
        raise VerificationError(f"stopping time failed to assign {len(pending)} intervals")
    anchor = (1 << anchor_level) - 1 + (u.positions >> (u.levels - anchor_level))

    # A block is a group of rows with equal (k, anchor) cut at its maximal
    # members, so a row's block top is the coarsest row of its group that
    # contains it. Nested rows with one anchor have one k (at the inner
    # row's k the anchor covers the outer row too), so equal anchors suffice,
    # and every support row between two such rows has that anchor as well:
    # the top is reached through parents with the row's anchor. Such a walk
    # takes at most N steps, so pointer jumping reaches the top in
    # bit_length(N) doublings.
    parent = grid.parent
    top = np.where((parent >= 0) & (anchor[parent] == anchor), parent, np.arange(len(parent)))
    for _ in range(u.max_level.bit_length()):
        top = top[top]
    # tops in support order give the blocks ordered by top
    is_top = top == np.arange(len(top))
    block = (np.cumsum(is_top) - 1)[top]
    return block, np.flatnonzero(is_top)


def appendix_constant(p: float, carleson: float | Fraction) -> float:
    """1 + 4^(1/p) * sum_{l>=1} r^l with r = 2^(-2 / (p * (4*carleson + 1))).

    Closed form of the geometric series controlling how much the norm of a
    sum of blocks can exceed the p-sum of the block norms; increasing in both
    p and the Carleson constant. Both must be finite; where r rounds to 1.0
    (also past the float range) the series exceeds every float: inf.
    """
    if not 1 <= p < math.inf:  # NaN included
        raise ValueError(f"p must be finite and at least 1, got {p}")
    if not 1 <= carleson < math.inf:
        raise ValueError(f"Carleson constant must be finite and at least 1, got {carleson}")
    try:
        p, carleson = float(p), float(carleson)
    except OverflowError:  # an int or Fraction past the float range
        return math.inf
    ratio = 2.0 ** (-2.0 / (p * (4.0 * carleson + 1.0)))
    if ratio == 1.0:
        return math.inf
    return 1.0 + 4.0 ** (1.0 / p) * ratio / (1.0 - ratio)


def _lower_constant(u: HaarExpansion, p: float, carleson: float | Fraction) -> float:
    """The constant a_p of the lower norm chain a_p ||u||^p <= sum_i ||u_i||^p
    for blocks whose tops have Carleson constant `carleson`: 1 for a scalar
    u or p <= 1, else `appendix_constant(p, carleson) ** -p`. The verifier
    takes it at the tops' constant, the vector multiplier check at 4."""
    return 1.0 if u.dimension == 1 or p <= 1 else appendix_constant(p, carleson) ** (-p)


def _block_stats(
    u: HaarExpansion,
    p: float,
    rows: np.ndarray,
    block: np.ndarray,
    tops: list[DyadicInterval],
    tops_in_blocks: bool,
    grid: _Grid,
    squares: np.ndarray,
) -> tuple[bool, bool, list[float], np.ndarray, np.ndarray]:
    """The blocks of a decomposition on u's support rows, as `_member_rows`
    gives them, checked and measured on `grid`, the grid of u's support,
    with `squares[j]` as the coefficient square of support row j (u.squares,
    or those of a product phi * u, zero rows kept): (whether the blocks
    partition the support, whether each is also a block relative to the
    support, and per block b: norm_p^p, the sup of its square function,
    whether every supported member lies inside its top `tops[b]`). No top
    is finer than `u.max_level`.

    A block relative to the support has exactly one row with no support
    parent (`grid.parent`) or a parent in another block (`dyadic.is_block`,
    for all blocks at once). The square function of a block vanishes
    outside its top, so the sums run over the cells inside the top; members
    outside the top (a corrupt piece, caught by `tops_ok`) and outside the
    support (whose square is 0) are left out. A clean decomposition (its
    blocks partition the support and pass the block check, and each top is
    a member of its block and contains it) sums on `grid` (`_tree_cells`);
    any other sums each block on the grid `_cells` picks for it alone
    (`_own_cells`). Each block's norm is an `np.sum` over its cells, as
    `_cell_sum` sums them (`np.add.reduceat` sums in another order), and
    the sups are one `np.maximum.reduceat`.
    """
    # the blocks partition the support iff none is empty and the member
    # rows are each support row once
    n, n_blocks = len(u.support), len(tops)
    partition_ok = bool(
        np.bincount(block, minlength=n_blocks).all()
        and len(rows) == n
        and (rows >= 0).all()
        and (np.bincount(rows, minlength=n) == 1).all()
    )
    blocks_ok = False
    if partition_ok:
        row_block = np.empty(n, dtype=np.int64)
        row_block[rows] = block
        head = grid.parent < 0
        child = ~head
        head[child] = row_block[grid.parent[child]] != row_block[child]
        blocks_ok = bool((np.bincount(row_block[head], minlength=n_blocks) == 1).all())

    flat = np.fromiter(chain.from_iterable(tops), np.int64, 2 * n_blocks)
    top_levels, top_positions = flat[0::2], flat[1::2]
    known = rows >= 0
    rows, block = rows[known], block[known]
    levels = u.levels[rows] - top_levels[block]
    positions = u.positions[rows]
    inside = (levels >= 0) & (positions >> np.maximum(levels, 0) == top_positions[block])
    all_inside = np.bincount(block[~inside], minlength=n_blocks) == 0
    if not n_blocks:
        return partition_ok, blocks_ok, [], np.zeros(0), all_inside
    if blocks_ok and tops_in_blocks and inside.all():
        cells, lengths, sizes = _tree_cells(grid, row_block, head, squares)
    else:
        rows, block, levels = rows[inside], block[inside], levels[inside]
        positions = positions[inside] - (top_positions[block] << levels)
        cells, lengths, sizes = _own_cells(
            u.max_level - top_levels, block, levels, positions, squares[rows]
        )
    offsets = np.cumsum(sizes) - sizes
    terms = cells ** (p / 2.0)
    if lengths is not None:
        terms = lengths * terms
    norms = terms[offsets]  # a sum over one cell is that cell
    for b in np.flatnonzero(sizes > 1).tolist():
        norms[b] = np.add.reduce(terms[offsets[b] : offsets[b] + sizes[b]])
    sups = np.sqrt(np.maximum.reduceat(cells, offsets))
    return partition_ok, blocks_ok, (norms * 2.0 ** (-u.max_level)).tolist(), sups, all_inside


def _tree_cells(
    grid: _Grid, row_block: np.ndarray, head: np.ndarray, squares: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Every block's square function on the cells inside its top, for a
    clean decomposition: `row_block[j]` is the block of support row j and
    `head[j]` whether j is its block's top. Returns (the cell values, block
    after block and left to right in each, their lengths in leaves, None on
    the leaf grid, and each block's number of cells).

    A block's rows are one tree of the parent table cut at the heads, so one
    `_tree_sums` on that table gives each row the sum of its block's
    squares from the top down, in the additions of `_cells` on the block
    alone. A cell's rows, its owner and the owner's ancestors, pass through
    its blocks one after another, so each cell walks up from its owner: it
    takes the deepest row of each block on the way, then steps to the
    parent of that block's top. On the leaf grid a block's cells are its
    leaves. On the atoms the cells of `grid` are cut by every block's
    endpoints, so a block's run of cells with one deepest row is merged
    into one: the atom of the block alone, with fewer terms to round."""
    n = len(row_block)
    sums = _tree_sums(grid.bounds, np.arange(n), np.where(head, -1, grid.parent), squares)
    heads = np.flatnonzero(head)
    top_row = np.empty(len(heads), dtype=np.int64)
    top_row[row_block[heads]] = heads
    cell, row = np.arange(len(grid.owner)), grid.owner
    parts = []
    while True:
        keep = row >= 0
        cell, row = cell[keep], row[keep]
        if not len(row):
            break
        parts.append((cell, row))
        row = grid.parent[top_row[row_block[row]]]
    cell, row = map(np.concatenate, zip(*parts))
    # distinct keys, in ascending runs of cells: a merging sort is fastest
    order = np.argsort(row_block[row] * len(grid.owner) + cell, kind="stable")
    cell, row = cell[order], row[order]
    lengths = None
    if grid.lengths is not None:
        runs = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
        lengths, row = np.add.reduceat(grid.lengths[cell], runs), row[runs]
    return sums[row], lengths, np.bincount(row_block[row], minlength=len(heads))


def _own_cells(
    depth: np.ndarray,
    block: np.ndarray,
    levels: np.ndarray,
    positions: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One `_cells` call per block, each on the grid of the block alone:
    block b spans 2^depth[b] leaves and holds the intervals (levels[j],
    positions[j]) with block[j] == b, relative to its top, each block's in
    support order. Returns (the cell values, block after block, their
    lengths in leaves, each block's number of cells)."""
    order, ends = _block_order(block, len(depth))
    cells, lengths = [], []
    for own, lo, hi in zip(depth.tolist(), [0] + ends, ends):
        rows = order[lo:hi]
        values_b, lengths_b = _cells(_Grid(own, levels[rows], positions[rows]), values[rows])
        cells.append(values_b)
        lengths.append(np.ones(len(values_b), dtype=np.int64) if lengths_b is None else lengths_b)
    return np.concatenate(cells), np.concatenate(lengths), np.array(list(map(len, cells)))


def _tops_carleson(tops: list[DyadicInterval], max_level: int) -> Fraction:
    """The Carleson constant of the tops counted with multiplicity, 0 for no
    tops; ValueError for a top above `max_level`."""
    counts = Counter(tops)
    distinct = tuple(sorted(counts))
    if not distinct:
        return Fraction(0)
    if distinct[-1].level > max_level:  # the finest top comes last
        over = next(top for top in distinct if top.level > max_level)
        raise ValueError(f"interval {over} exceeds declared max level {max_level}")
    family = IntervalFamily._from_sorted(distinct, max_level)
    return _packed_carleson(family, [counts[top] for top in distinct])


def verify_decomposition(
    u: HaarExpansion, p: float, dec: AtomicDecomposition
) -> DecompositionReport:
    """Re-check every guarantee of a decomposition against its source.

    Checks: (a) the blocks partition the Haar support, (b) every top is the
    union of its block and the tops' Carleson constant is <= 4, (c) the lower
    norm chain holds (with constant 1 for scalar expansions or p <= 1, with
    the appendix constant otherwise), (d) the middle inequality
    sum ||u_i||^p <= sum |I_i| * sup S(u_i)^p holds, (e) every block is a
    block relative to the support, read from the support parent rows, (f)
    the observed upper-chain ratio. Every call rechecks from scratch on dec
    as `_member_rows` maps it onto u's support rows; a decomposition built
    by `decompose` on u's support sums on the grid it keeps
    (`haar._KeptRows._grid_for`).
    """
    _check_exponents(p)
    if dec.max_level != u.max_level or dec.dimension != u.dimension:
        raise ValueError("decomposition does not match the expansion")
    rows, block, tops, tops_in_blocks = _member_rows(u, dec)
    grid = dec._grid_for(u)
    norm_p = _norm(u, p, None, grid)
    tops_carleson = _tops_carleson(tops, u.max_level)
    tops_carleson_ok = tops_carleson <= 4

    partition_ok, blocks_ok, norms, sups, inside = _block_stats(
        u, p, rows, block, tops, tops_in_blocks, grid, u.squares
    )
    tops_ok = tops_in_blocks and bool(inside.all())

    norm_p_p = norm_p**p
    block_sum = 0.0
    top_sum = 0.0
    chain_middle_ok = True
    for piece_norm_p, piece_sup, top in zip(norms, sups.tolist(), tops):
        top_measure = 2.0 ** (-top.level)
        piece_bound = top_measure * piece_sup**p
        if piece_norm_p > piece_bound * (1 + _ROUNDING_RTOL):
            chain_middle_ok = False
        block_sum += piece_norm_p
        top_sum += piece_bound

    lower_constant = _lower_constant(u, p, max(tops_carleson, 1))
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


def _member_rows(
    u: HaarExpansion, dec: AtomicDecomposition
) -> tuple[np.ndarray, np.ndarray, list[DyadicInterval], bool]:
    """dec on u's support rows, as `verify_decomposition` reads it: its own
    row form when it was built on u's support, else its pieces mapped onto
    the rows once. Returns (the support row of each member, -1 outside the
    support; each member's block, each block's rows ascending; the tops;
    whether every top is a member of its block and every member outside the
    support lies inside its top)."""
    tops = dec.tops()
    if dec._of_support(u):
        block, top_rows = dec._block, dec._top_rows
        tops_in_blocks = bool((block[top_rows] == np.arange(len(top_rows))).all())
        return np.arange(len(u.support)), block, tops, tops_in_blocks
    families = [family for family, _ in dec.pieces]
    row_of = dict(zip(u.support, range(len(u.support))))
    members = list(chain.from_iterable(families))
    rows = np.fromiter(map(row_of.get, members, repeat(-1)), np.int64, len(members))
    sizes = list(map(len, families))
    block = np.repeat(np.arange(len(sizes)), sizes)
    strays = np.flatnonzero(rows < 0).tolist()
    tops_in_blocks = all(map(IntervalFamily.__contains__, families, tops)) and all(
        tops[block[j]].contains(members[j]) for j in strays
    )
    return rows, block, tops, tops_in_blocks


def decompose(u: HaarExpansion, p: float) -> AtomicDecomposition:
    """Build the stopping-time decomposition of a nonzero expansion.

    The output always passes `verify_decomposition`; a verification failure
    raises instead of returning a bad decomposition.
    """
    return _decompose(u, p, _support_grid(u))[0]


def _decompose(
    u: HaarExpansion, p: float, grid: _Grid
) -> tuple[AtomicDecomposition, DecompositionReport]:
    """`decompose` on the grid of u's support, with the report of its
    `verify_decomposition`, for the weight constructors to reuse within one
    call; the stopping time and the verification share the grid, which the
    decomposition keeps, and its parent table."""
    if u.is_zero:
        raise ZeroInputError("cannot decompose the zero expansion")
    _check_exponents(p)
    block, top_rows = _stopping_time(u, grid)
    dec = AtomicDecomposition._from_rows(
        u, {}, grid, _block=block, _top_rows=top_rows, max_level=u.max_level, dimension=u.dimension
    )
    report = verify_decomposition(u, p, dec)
    if not report.passed:
        message = f"decomposition failed verification: {report.as_dict()}"
        raise VerificationError(message, report)
    return dec, report
