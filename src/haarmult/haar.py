"""Finite Haar expansions and their square-function norms.

An expansion is a finite formal sum  u = sum_I x_I h_I  over dyadic intervals,
with coefficient vectors x_I in R^d (d = 1 is the scalar case) and the
L-infinity normalised Haar functions h_I. All square functions are step
functions that are constant on the 2^N leaves of the finest level N, so every
norm integral below is a finite leaf sum with no quadrature error.

Each expansion stores its support once as read-only arrays in support order,
(level, position) sorted: `levels`, `positions`, `values` and `squares`. The
hot paths (leaf sums, multipliers, the stopping time) read those arrays
instead of looping over the `coeffs` mapping.

Every leaf sum sum_I v_I 1_I goes through `push_down`; no other module knows
the leaf layout. It is bit-identical to adding the intervals one by one in
(level, position) order, and holds O(2^N) floats per batch row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dyadic import DyadicInterval, IntervalFamily

CoeffMap = Mapping[DyadicInterval, "float | Iterable[float]"]


def _square_length(vector: list[float]) -> float:
    """`coefficient_square` of a vector, inf where the sum overflows."""
    try:
        return math.fsum(c * c for c in vector)
    except OverflowError:
        return math.inf


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class HaarExpansion:
    """Sparse Haar coefficients up to a fixed maximum level.

    Zero coefficient vectors are dropped on construction, so the key set of
    ``coeffs`` equals the Haar support. Values are tuples of floats of length
    ``dimension`` and must be finite.

    The support is also kept as read-only arrays, built once, row j for the
    j-th interval of ``coeffs``: ``levels`` and ``positions`` (int64),
    ``values`` of shape (n, dimension), and ``squares``, the squared Euclidean
    lengths, equal to `coefficient_square` (inf where that overflows).
    """

    __slots__ = (
        "max_level", "dimension", "coeffs", "levels", "positions", "values", "squares"
    )

    def __init__(self, max_level: int, dimension: int, coeffs: CoeffMap) -> None:
        if max_level < 0:
            raise ValueError(f"max_level must be nonnegative, got {max_level}")
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        intervals = sorted(coeffs)
        rows = []
        for interval in intervals:
            if interval.level > max_level:
                raise ValueError(
                    f"interval {interval} exceeds max level {max_level}"
                )
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
            rows.append(vector)
        keys = np.array(intervals, dtype=np.int64).reshape(len(intervals), 2)
        levels, positions = keys.T.copy()
        values = np.array(rows, dtype=float).reshape(len(rows), dimension)
        self._store(max_level, dimension, intervals, levels, positions, values)

    @classmethod
    def _from_rows(
        cls,
        max_level: int,
        dimension: int,
        intervals: Sequence[DyadicInterval],
        levels: np.ndarray,
        positions: np.ndarray,
        values: np.ndarray,
    ) -> "HaarExpansion":
        """The validating core for rows already in support order."""
        u = object.__new__(cls)
        u._store(max_level, dimension, intervals, levels, positions, values)
        return u

    def _store(
        self,
        max_level: int,
        dimension: int,
        intervals: Sequence[DyadicInterval],
        levels: np.ndarray,
        positions: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Reject non-finite rows, drop zero rows, and set every attribute."""
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            bad = intervals[int(np.argmin(finite))]
            raise ValueError(f"coefficient at {bad} is not finite")
        nonzero = values.any(axis=1)
        if not nonzero.all():
            intervals = list(compress(intervals, nonzero.tolist()))
            levels, positions, values = (
                levels[nonzero], positions[nonzero], values[nonzero]
            )
        if dimension == 1:
            with np.errstate(over="ignore"):
                squares = values[:, 0] * values[:, 0]
        else:
            squares = np.array(list(map(_square_length, values.tolist())), dtype=float)
        set_attr = object.__setattr__
        set_attr(self, "max_level", max_level)
        set_attr(self, "dimension", dimension)
        set_attr(self, "coeffs", dict(zip(intervals, zip(*values.T.tolist()))))
        set_attr(self, "levels", _read_only(levels))
        set_attr(self, "positions", _read_only(positions))
        set_attr(self, "values", _read_only(values))
        set_attr(self, "squares", _read_only(squares))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HaarExpansion is immutable")

    @classmethod
    def scalar(cls, max_level: int, coeffs: CoeffMap) -> "HaarExpansion":
        return cls(max_level, 1, coeffs)

    @property
    def support(self) -> tuple[DyadicInterval, ...]:
        return tuple(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def support_family(self) -> IntervalFamily:
        return IntervalFamily(self.coeffs, max_level=self.max_level)

    def restrict(self, intervals: Iterable[DyadicInterval]) -> "HaarExpansion":
        """Sub-expansion keeping only the given support intervals."""
        kept = {i: self.coeffs[i] for i in intervals if i in self.coeffs}
        return HaarExpansion(self.max_level, self.dimension, kept)

    def coefficient_square(self, interval: DyadicInterval) -> float:
        """Squared Euclidean length of the coefficient vector at `interval`."""
        vector = self.coeffs.get(interval)
        if vector is None:
            return 0.0
        return math.fsum(c * c for c in vector)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HaarExpansion):
            return NotImplemented
        return (
            self.max_level == other.max_level
            and self.dimension == other.dimension
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return (
            f"HaarExpansion(max_level={self.max_level}, "
            f"dimension={self.dimension}, support={len(self.coeffs)})"
        )


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Function constant on each leaf [j*2^-N, (j+1)*2^-N) of level N."""

    max_level: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.values.shape != (1 << self.max_level,):
            raise ValueError(
                f"expected {1 << self.max_level} leaf values, "
                f"got shape {self.values.shape}"
            )

    def __call__(self, t: float) -> float:
        if not 0.0 <= t < 1.0:
            raise ValueError(f"point {t} outside [0, 1)")
        return float(self.values[int(t * (1 << self.max_level))])

    def lp_norm(self, p: float) -> float:
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        return float(np.mean(np.abs(self.values) ** p) ** (1.0 / p))

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def push_down(
    max_level: int, levels: np.ndarray, positions: np.ndarray, values: np.ndarray
) -> np.ndarray:
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


def support_arrays(u: HaarExpansion) -> tuple[np.ndarray, np.ndarray]:
    """Levels and positions of the support, in `push_down` order."""
    return u.levels, u.positions


def square_leaf_sums(u: HaarExpansion) -> np.ndarray:
    """Leafwise values of S(u)^2, i.e. sum_I |x_I|^2 1_I."""
    return push_down(u.max_level, u.levels, u.positions, u.squares)


def evaluate_haar(interval: DyadicInterval, t: float) -> int:
    """+1 on the left half of the interval, -1 on the right half, 0 outside."""
    if not interval.left <= t < interval.right:
        return 0
    midpoint = (interval.left + interval.right) / 2
    return 1 if t < midpoint else -1


def square_function(u: HaarExpansion) -> StepFunction:
    """t -> (sum_I |x_I|^2 1_I(t))^(1/2) with Euclidean coefficient norms.

    For d > 1 this is the Hilbert-space closed form of the randomised square
    function: averaging independent signs in L^2 reproduces the square sum
    exactly, so no sampling is involved.
    """
    return StepFunction(u.max_level, np.sqrt(square_leaf_sums(u)))


def q_variation(u: HaarExpansion, q: float) -> StepFunction:
    """t -> (sum_I |x_I|^q 1_I(t))^(1/q); scalar expansions only."""
    if u.dimension != 1:
        raise ValueError("q-variation is defined for scalar expansions only")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    powers = [abs(value) ** q for (value,) in u.coeffs.values()]
    sums = push_down(u.max_level, *support_arrays(u), powers)
    return StepFunction(u.max_level, sums ** (1.0 / q))


def hp_norm(u: HaarExpansion, p: float) -> float:
    """L^p norm of the square function, 0 < p <= 2; OverflowError if the norm
    of a nonzero expansion comes out 0 or inf (coefficients are not rescaled)."""
    if not 0 < p <= 2:
        raise ValueError(f"p must lie in (0, 2], got {p}")
    sums = square_leaf_sums(u)
    return _in_float_range(float(np.mean(sums ** (p / 2.0)) ** (1.0 / p)), u)


def tl_norm(u: HaarExpansion, p: float, q: float) -> float:
    """L^p norm of the q-variation, 0 < p <= q < infinity; OverflowError
    like `hp_norm`."""
    if not 0 < p <= q:
        raise ValueError(f"need 0 < p <= q, got p={p}, q={q}")
    try:
        value = q_variation(u, q).lp_norm(p)
    except OverflowError:  # a power |x_I|^q past the float range
        value = math.inf
    return _in_float_range(value, u)


def _in_float_range(norm: float, u: HaarExpansion) -> float:
    if not u.is_zero and not 0.0 < norm < math.inf:
        raise OverflowError(f"norm {norm} of a nonzero u leaves the float range")
    return norm


def convexify(u: HaarExpansion, q: float) -> HaarExpansion:
    """Coefficientwise power |x_I|^(q/2); support is preserved."""
    if u.dimension != 1:
        raise ValueError("convexification is defined for scalar expansions only")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    powered = [abs(value) ** (q / 2.0) for (value,) in u.coeffs.values()]
    values = np.array(powered, dtype=float).reshape(len(powered), 1)
    return HaarExpansion._from_rows(
        u.max_level, 1, u.support, u.levels, u.positions, values
    )


def l2_norm(u: HaarExpansion) -> float:
    """(sum_I |x_I|^2 |I|)^(1/2), the H^2 norm computed from coefficients."""
    return math.sqrt(
        math.fsum(
            u.coefficient_square(interval) * 2.0 ** (-interval.level)
            for interval in u.coeffs
        )
    )


def multiply(phi: Mapping[DyadicInterval, float], u: HaarExpansion) -> HaarExpansion:
    """Coefficientwise multiplier phi * u; missing phi entries count as 0.

    Zero products are dropped and a non-finite product raises ValueError,
    as on construction.
    """
    support = u.support
    factors = np.array(list(map(phi.get, support, repeat(0.0))), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        values = u.values * factors[:, None]
    return HaarExpansion._from_rows(
        u.max_level, u.dimension, support, u.levels, u.positions, values
    )
