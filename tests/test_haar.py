"""Expansions, square functions and norms, checked against direct pointwise
evaluation of the Haar sums."""

import copy
import itertools
import math
import pickle
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmult import (
    DegenerateThetaError,
    DyadicInterval,
    Factorization,
    HaarExpansion,
    PietschMeasure,
    check_multiplier_bound,
    check_multiplier_bounds,
    convexify,
    factorize,
    haar,
    hp_norm,
    l2_norm,
    tl_norm,
    weights_tl,
    x0_norm_estimate,
)
from haarmult.cli import gen_random
from haarmult.haar import (
    _BIN_ENTRIES,
    _FSUM_MIN_ROW,
    _binned_sum,
    _fsum_rows,
    _pow,
    _product_norms,
    _square_length,
    _squares,
    _support_grid,
)
from haarmult.pisier import theta

import haar_oracle
import pietsch_oracle
from haar_oracle import evaluate_haar


def iv(level, pos):
    return DyadicInterval(level, pos)


def scalar(max_level, pairs):
    return HaarExpansion.scalar(
        max_level, {iv(level, pos): value for (level, pos), value in pairs.items()}
    )


def random_scalar(rng, max_level, density=0.6):
    coeffs = {}
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                coeffs[iv(level, pos)] = float(rng.standard_normal())
    if not coeffs:
        coeffs[iv(0, 0)] = float(rng.standard_normal()) or 1.0
    return HaarExpansion.scalar(max_level, coeffs)


def at(values, t):
    """A step function's value at t in [0, 1), read from its leaf values."""
    return values[int(t * len(values))]


def square_leaves(u):
    """The square function on the leaves, from the library's cell sums."""
    return np.sqrt(haar_oracle.leaf_values(u, u.squares))


def q_leaves(u, q):
    """The q-variation on the leaves, from the library's cell sums of the
    powers |x_I|^q that `tl_norm` sums."""
    return haar_oracle.leaf_values(u, _pow(np.abs(u.values[:, 0]), q)) ** (1.0 / q)


def pointwise_haar_sum(u, t):
    """Direct evaluation of sum_I x_I h_I(t); the independent route."""
    total = np.zeros(u.dimension)
    for interval, vector in u.coeffs.items():
        sign = evaluate_haar(interval, t)
        if sign:
            total += sign * np.asarray(vector)
    return total


class TestExpansion:
    def test_zero_coefficients_dropped(self):
        u = scalar(2, {(0, 0): 1.0, (1, 1): 0.0})
        assert u.support == (iv(0, 0),)

    def test_level_above_max_rejected(self):
        with pytest.raises(ValueError):
            scalar(1, {(2, 0): 1.0})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HaarExpansion(1, 2, {iv(0, 0): (1.0,)})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scalar(1, {(0, 0): math.inf})

    @pytest.mark.parametrize(
        "raw, want",
        [
            (np.float32(1.5), 1.5),
            (np.int64(2), 2.0),
            (np.array(2.0), 2.0),
            (np.array(-3, dtype=np.int8), -3.0),
            (True, 1.0),
            (np.bool_(True), 1.0),
        ],
    )
    def test_zero_dimensional_values_are_scalars(self, raw, want):
        u = HaarExpansion(2, 1, {iv(0, 0): raw})
        assert u.coeffs == {iv(0, 0): (want,)}
        assert type(u.coeffs[iv(0, 0)][0]) is float

    def test_vector_values_iterate(self):
        assert HaarExpansion(2, 2, {iv(0, 0): np.array([1.0, 2.0])}).coeffs == {
            iv(0, 0): (1.0, 2.0)
        }
        assert HaarExpansion(2, 1, {iv(0, 0): np.array([4])}).coeffs == {iv(0, 0): (4.0,)}
        with pytest.raises(TypeError):
            HaarExpansion(2, 1, {iv(0, 0): None})

    @pytest.mark.parametrize(
        "dimension, raw",
        [
            (2, "15"),
            (1, "7"),
            (1, b"7"),
            (1, bytearray(b"7")),
            (2, ("1", "5")),
            (2, [1.0, b"5"]),
            (1, np.str_("7")),
            (1, np.array("15")),
            (2, np.array(["1", "5"])),
            (1, np.array(b"7")),
            (1, np.array("7", dtype=object)),
        ],
    )
    def test_text_values_refused(self, dimension, raw):
        # text was parsed ("15" stored (1.0, 5.0)) or read as bytes (b"7"
        # stored 55.0); it is refused, naming the interval
        with pytest.raises(TypeError, match="coefficient at 1/1 is text"):
            HaarExpansion(3, dimension, {iv(0, 0): [1.0] * dimension, iv(1, 1): raw})

    @pytest.mark.parametrize(
        "max_level, dimension", [(3.5, 1), (3.0, 1), (3, 2.5), (3, 1.0), ("3", 1), (None, 1)]
    )
    def test_non_integer_level_or_dimension_refused(self, max_level, dimension):
        # 3.5 and 3.0 used to construct and fail in every norm, and
        # dimension 2.5 gave "expected 2.5"
        with pytest.raises(TypeError, match="max_level and dimension must be integers"):
            HaarExpansion(max_level, dimension, {iv(0, 0): [1.0] * int(dimension)})

    def test_numpy_integer_level_and_dimension_stored_as_int(self):
        u = HaarExpansion(np.int64(3), np.uint8(2), {iv(1, 1): (1.0, 2.0)})
        assert (type(u.max_level), type(u.dimension)) == (int, int)
        assert u == HaarExpansion(3, 2, {iv(1, 1): (1.0, 2.0)})
        assert hp_norm(u, 1.5) == hp_norm(HaarExpansion(3, 2, {iv(1, 1): (1.0, 2.0)}), 1.5)

    @pytest.mark.parametrize(
        "raw",
        [
            np.complex128(1 + 2j),
            1 + 2j,
            np.complex64(1j),
            np.array(1 + 0j),
            np.array([1 + 2j]),
            [1.0, 2j],
            (1.0, np.complex128(3j)),
            np.array([1 + 2j, 3j]),
            [np.array(4j), 1.0, 2.0],
        ],
    )
    def test_complex_values_refused(self, raw):
        # np.complex128(1+2j) was stored as 1.0 with a ComplexWarning,
        # np.array([1+2j, 3j]) as (1.0, 0.0), and a Python complex raised
        # "'complex' object is not iterable"; each is refused, naming the interval
        dimension = len(raw) if np.ndim(raw) else 1
        with pytest.raises(TypeError, match=r"coefficient at 1/1 is complex, .*, not real numbers"):
            HaarExpansion(3, dimension, {iv(0, 0): [1.0] * dimension, iv(1, 1): raw})

    @pytest.mark.parametrize(
        "raw, want",
        [
            (Fraction(1, 3), 1 / 3),
            (Decimal("0.25"), 0.25),
            ([Fraction(1, 3)], 1 / 3),
        ],
    )
    def test_any_number_is_one_entry(self, raw, want):
        # a Fraction or a Decimal raised "'Fraction' object is not iterable"
        assert HaarExpansion(2, 1, {iv(0, 0): raw}).values.tolist() == [[want]]

    @pytest.mark.parametrize(
        "raw",
        [10**400, -(10**400), [10**400], Fraction(10**400)],
        ids=["int", "negative int", "list", "Fraction"],
    )
    def test_numbers_past_the_float_range_are_not_finite(self, raw):
        # 10**400 let "OverflowError: int too large to convert to float" escape
        with pytest.raises(ValueError, match=r"^coefficient at 0/0 is not finite$"):
            HaarExpansion(2, 1, {iv(0, 0): raw})

    def test_a_huge_integer_is_refused_in_the_order_of_inf(self):
        # the finiteness check comes after the loop, so a later row's length
        # error still wins, as it does over a float inf
        for huge in (10**400, math.inf):
            with pytest.raises(ValueError, match="coefficient at 1/0 has length 2"):
                HaarExpansion(2, 1, {iv(0, 0): huge, iv(1, 0): [1.0, 2.0]})

    def test_float_entries_skip_the_type_probe(self, monkeypatch):
        # the Python floats that `coeffs`, a pickle and a file give
        # are read with no `_unreal` call; any other entry still gets one
        def probe(value):
            raise AssertionError(f"probed {value!r}")

        u = HaarExpansion(3, 2, {iv(0, 0): (1.0, -2.0), iv(3, 5): [0.5, 0.0]})
        monkeypatch.setattr("haarmult.haar._unreal", probe)
        assert HaarExpansion(3, 2, dict(u.coeffs)) == u
        with pytest.raises(AssertionError, match="probed 1"):
            HaarExpansion(3, 2, {iv(0, 0): (1, 2.0)})

    @pytest.mark.parametrize("key", [(0, 0), "0/0", 0, None])
    def test_foreign_keys_refused(self, key):
        with pytest.raises(TypeError, match=r"coefficient key .* is not a DyadicInterval"):
            HaarExpansion(3, 1, {iv(1, 0): 1.0, key: 1.0})

    def test_restrict(self):
        u = scalar(2, {(0, 0): 1.0, (1, 0): 2.0})
        assert haar_oracle.restrict(u, [iv(1, 0)]).support == (iv(1, 0),)

    def test_support_arrays_in_support_order(self):
        u = HaarExpansion(2, 2, {iv(2, 3): (1.0, 2.0), iv(0, 0): [3, 4], iv(1, 1): (0, 0)})
        assert u.support == (iv(0, 0), iv(2, 3))
        assert u.levels.tolist() == [0, 2]
        assert u.positions.tolist() == [0, 3]
        assert u.values.tolist() == [[3.0, 4.0], [1.0, 2.0]]
        assert u.squares.tolist() == [25.0, 5.0]
        assert u.levels.dtype == u.positions.dtype == np.int64

    def test_support_arrays_read_only(self):
        u = scalar(2, {(0, 0): 1.0, (1, 1): 2.0})
        for product in (u, pietsch_oracle.multiply({iv(1, 1): 3.0}, u), convexify(u, 3.0)):
            for array in (product.levels, product.positions, product.values, product.squares):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 7
        with pytest.raises(AttributeError):
            u.values = np.zeros((2, 1))

    def test_attributes_cannot_be_deleted(self):
        # every slot survives a `del`; `coeffs` is a view over them
        u = scalar(2, {(0, 0): 1.0, (1, 1): 2.0})
        for name in HaarExpansion.__slots__:
            with pytest.raises(AttributeError, match="HaarExpansion is immutable"):
                delattr(u, name)
            assert hasattr(u, name)
        assert u.coeffs == {iv(0, 0): (1.0,), iv(1, 1): (2.0,)}

    def test_empty_support_arrays(self):
        u = HaarExpansion(3, 2, {iv(1, 0): (0.0, 0.0)})
        assert u.is_zero
        assert u.values.shape == (0, 2)
        assert len(u.levels) == len(u.positions) == len(u.squares) == 0

    def test_squares_overflow_to_inf_without_warning(self):
        # the squares of huge coefficients leave the float range silently,
        # and every norm then fails closed
        u = scalar(1, {(0, 0): 1e160, (1, 0): 1e-200})
        assert u.squares.tolist() == [math.inf, 0.0]
        with pytest.raises(OverflowError):
            hp_norm(u, 1.0)
        # a vector whose squares are finite but whose sum is not
        v = HaarExpansion(0, 2, {iv(0, 0): (1.3e154, 1.3e154)})
        assert v.squares.tolist() == [math.inf]
        with pytest.raises(OverflowError):
            hp_norm(v, 1.0)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda u: pickle.loads(pickle.dumps(u)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_pickle_and_copy_rebuild_an_equal_expansion(self, round_trip):
        for u in (
            scalar(3, {(0, 0): 1.0, (2, 3): -0.5, (3, 1): 2.0}),
            HaarExpansion(2, 2, {iv(1, 1): (1.0, -2.0), iv(0, 0): (0.5, 0.0)}),
            HaarExpansion.scalar(4, {}),
        ):
            got = round_trip(u)
            assert got == u and got is not u
            assert got.support == u.support
            for name in ("levels", "positions", "values", "squares"):
                array = getattr(got, name)
                assert np.array_equal(array, getattr(u, name))
                assert not array.flags.writeable

    def test_coeffs_cannot_be_mutated(self):
        # `coeffs` was a dict kept on the expansion: an item set there went
        # into copies and pickles (values [7, 2], hp_norm 7.14 for 1.618)
        # while `==` still held, and a `del` made u equal a one-row expansion
        u = scalar(1, {(0, 0): 1.0, (1, 1): 2.0})
        values, norm = u.values.tobytes(), hp_norm(u, 1.0)
        with pytest.raises(TypeError):
            u.coeffs[iv(0, 0)] = (7.0,)
        with pytest.raises(TypeError):
            del u.coeffs[iv(1, 1)]
        assert u.coeffs == {iv(0, 0): (1.0,), iv(1, 1): (2.0,)}
        assert u != scalar(1, {(0, 0): 7.0})
        for got in (copy.deepcopy(u), pickle.loads(pickle.dumps(u)), copy.copy(u)):
            assert got == u
            assert got.values.tobytes() == values
            assert hp_norm(got, 1.0) == norm

    def test_coeffs_view(self):
        u = HaarExpansion(3, 2, {iv(2, 3): (1.0, -0.0), iv(0, 0): [3, 4], iv(3, 1): (0.5, 0.25)})
        coeffs = u.coeffs
        assert len(coeffs) == 3
        assert list(coeffs) == list(u.support) == [iv(0, 0), iv(2, 3), iv(3, 1)]
        want = {iv(0, 0): (3.0, 4.0), iv(2, 3): (1.0, -0.0), iv(3, 1): (0.5, 0.25)}
        assert list(coeffs.items()) == list(want.items())
        assert coeffs == want and want == coeffs
        assert coeffs != {**want, iv(1, 0): (1.0, 1.0)}
        assert {iv(0, 0): (3.0, 4.0)} != coeffs
        assert all(type(c) is float for v in coeffs.values() for c in v)
        for key in (iv(2, 3), (2, 3)):
            assert key in coeffs and coeffs[key] == (1.0, -0.0)
            assert coeffs.get(key) == (1.0, -0.0)
        for key in (iv(1, 0), (3, 7), "x", None, (0,), (0, 0, 0), ("a", 1)):
            assert key not in coeffs
            assert coeffs.get(key) is None
            with pytest.raises(KeyError):
                coeffs[key]
        empty = HaarExpansion.scalar(4, {}).coeffs
        assert len(empty) == 0 and iv(0, 0) not in empty and empty == {}

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_copies_keep_array_bytes(self, dimension):
        # a copy and a pickle pass the constructor a plain dict of Python
        # floats (lists of them at d > 1), and give back the same arrays
        rng = np.random.default_rng(dimension)
        values = rng.standard_normal((40, dimension)) * 10.0 ** rng.integers(-300, 300, (40, 1))
        values[::7, 0] = -0.0
        intervals = {iv(int(lv), int(ps) % (1 << int(lv))) for lv, ps in rng.integers(0, 9, (40, 2))}
        u = HaarExpansion(8, dimension, dict(zip(intervals, values)))
        state = u.__reduce__()[1][2]
        assert type(state) is dict and list(state) == list(u.support)
        if dimension == 1:
            assert all(type(x) is float for x in state.values())
        for got in (copy.deepcopy(u), pickle.loads(pickle.dumps(u)), copy.copy(u)):
            assert got == u and got.support == u.support
            for name in ("levels", "positions", "values", "squares"):
                assert getattr(got, name).tobytes() == getattr(u, name).tobytes()

    def test_equality_builds_no_mapping(self, monkeypatch):
        u = scalar(2, {(0, 0): 1.0, (1, 1): 2.0})
        monkeypatch.setattr(haar, "_CoeffView", None)  # a `coeffs` read fails
        assert u == scalar(2, {(1, 1): 2.0, (0, 0): 1.0})
        assert u != scalar(3, {(0, 0): 1.0, (1, 1): 2.0})
        assert u != scalar(2, {(0, 0): 1.0, (1, 0): 2.0})
        assert u != scalar(2, {(0, 0): 1.0, (1, 1): -2.0})
        assert u != scalar(2, {(0, 0): 1.0})
        assert u != HaarExpansion(2, 2, {iv(0, 0): (1.0, 0.0), iv(1, 1): (2.0, 0.0)})
        assert HaarExpansion(1, 2, {iv(0, 0): (1.0, 0.0)}) == HaarExpansion(1, 2, {iv(0, 0): (1.0, -0.0)})

    def test_coeffs_reads_allocate_no_dict(self):
        # a deep expansion keeps no dict, and a read allocates O(1)
        u = gen_random(14, 1, 0.5, 0)
        key, last = DyadicInterval(14, 5), u.support[-1]
        want = (len(u.support), key in set(u.support), (float(u.values[-1, 0]),))
        tracemalloc.start()
        try:
            got = (len(u.coeffs), key in u.coeffs, u.coeffs[last])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 16 << 10

    def test_multiply_drops_zero_and_rejects_non_finite_products(self):
        # the product norm is that of the expansion of the nonzero products
        # alone, and a non-finite product is refused as on construction
        u = scalar(2, {(0, 0): 1.0, (1, 0): 0.25, (1, 1): 2.0})
        factors = np.array([[0.0, 5e-324, 3.0]])
        want = hp_norm(scalar(2, {(1, 1): 6.0}), 1.0)
        assert _product_norms(u, factors, 1.0, None, _support_grid(u)) == [want]
        # at q = 1 the weighted sum |phi_I| w_I stays finite
        m = weights_tl(u, 1.0, 1.0)
        with pytest.raises(ValueError, match="coefficient at 1/1 is not finite"):
            check_multiplier_bound(u, 1.0, {iv(1, 1): 1e308}, m, q=1.0)


def _outcome(build, max_level, dimension, coeffs):
    """What a constructor gives: the support and each array's dtype, shape
    and bytes, or the type and message of its error."""
    try:
        u = build(max_level, dimension, coeffs)
    except Exception as exc:  # the error is compared too
        return type(exc), str(exc)
    arrays = (u.levels, u.positions, u.values, u.squares)
    return u.support, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


# each kind builds a value from a vector x of small integers as floats; a
# scalar kind gives a length-1 value, which at d > 1 both constructors refuse
_SCALAR_KINDS = {
    "int": lambda x: int(x[0]),
    "bool": lambda x: bool(x[0]),
    "float": lambda x: float(x[0]) / 3,
    "np.float64": lambda x: np.float64(x[0] / 3),
    "np.float32": lambda x: np.float32(x[0] / 3),
    "np.int64": lambda x: np.int64(x[0]),
    "np.bool_": lambda x: np.bool_(x[0]),
    "0-d array": lambda x: np.array(x[0] / 7),
    "0-d int8 array": lambda x: np.array(x[0], dtype=np.int8),
}
_VECTOR_KINDS = {
    "list": lambda x: (x / 3).tolist(),
    "tuple": lambda x: tuple((x / 3).tolist()),
    "int list": lambda x: [int(c) for c in x],
    "bool tuple": lambda x: tuple(bool(c) for c in x),
    "array": lambda x: x / 3,
    "float32 array": lambda x: (x / 3).astype(np.float32),
    "int array": lambda x: x.astype(np.int64),
    "numpy scalar list": lambda x: [np.float64(c / 3) for c in x],
    "0-d array list": lambda x: [np.array(c / 5) for c in x],
}
_VALUE_KINDS = {**_SCALAR_KINDS, **_VECTOR_KINDS}


def _drawn_coeffs(rng, max_level, dimension, kinds):
    """About 40 random intervals, some with a zero vector, each value of a
    kind drawn from `kinds`."""
    coeffs = {}
    for _ in range(40):
        level = int(rng.integers(0, max_level + 1))
        interval = iv(level, int(rng.integers(0, 1 << level)))
        x = rng.integers(-3, 4, dimension).astype(float)
        coeffs[interval] = _VALUE_KINDS[kinds[int(rng.integers(0, len(kinds)))]](x)
    return coeffs


class TestConstructorOracle:
    """The constructor against its list-built form in `haar_oracle.construct`:
    equal arrays, or an error of the same type with the same message."""

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(_VALUE_KINDS))
    def test_value_kinds(self, kind, dimension):
        rng = np.random.default_rng([dimension, sorted(_VALUE_KINDS).index(kind)])
        for _ in range(5):
            coeffs = _drawn_coeffs(rng, 5, dimension, [kind])
            want = _outcome(haar_oracle.construct, 5, dimension, coeffs)
            assert _outcome(HaarExpansion, 5, dimension, coeffs) == want

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_mixed_kinds(self, dimension):
        rng = np.random.default_rng(dimension)
        for _ in range(20):
            kinds = sorted(_VALUE_KINDS if dimension == 1 else _VECTOR_KINDS)
            coeffs = _drawn_coeffs(rng, 6, dimension, kinds)
            want = _outcome(haar_oracle.construct, 6, dimension, coeffs)
            assert _outcome(HaarExpansion, 6, dimension, coeffs) == want

    @pytest.mark.parametrize(
        "max_level, dimension, coeffs",
        [
            (3, 1, {iv(1, 0): 1.0, (0, 0): 1.0}),
            (3, 1, {iv(0, 0): 1.0, "0/0": 1.0}),
            (3, 2, {iv(0, 0): (1.0, 2.0), iv(1, 1): "15"}),
            (3, 2, {iv(0, 0): (1.0, 2.0), iv(1, 1): [1.0, b"5"]}),
            (3, 1, {iv(0, 0): 1.0, iv(1, 1): np.array("7")}),
            (3, 3, {iv(0, 0): (1.0, 2.0, 3.0), iv(2, 1): (1.0, 2.0)}),
            (3, 1, {iv(0, 0): 1.0, iv(2, 1): math.nan}),
            (3, 2, {iv(0, 0): (1.0, 2.0), iv(2, 1): np.array([np.inf, 0.0])}),
            (3, 1, {iv(0, 0): -math.inf}),
            # the length of a finer row is checked before the NaN of a coarser one
            (3, 1, {iv(0, 0): math.nan, iv(2, 1): (1.0, 2.0)}),
            (3, 1, {iv(0, 0): 1.0, iv(4, 1): 1.0}),
            (3, 1, {iv(70, (1 << 70) - 1): 1.0}),
            (3, 1, {iv(70, 5): 1.0, iv(1, 1): "7"}),
            (3.5, 1, {iv(0, 0): 1.0}),
            (-1, 1, {}),
            (62, 1, {}),
            (3, 0, {}),
            (3, 1, {iv(0, 0): None}),
        ],
    )
    def test_malformed_input(self, max_level, dimension, coeffs):
        want = _outcome(haar_oracle.construct, max_level, dimension, coeffs)
        assert isinstance(want[0], type) and issubclass(want[0], Exception)
        assert _outcome(HaarExpansion, max_level, dimension, coeffs) == want

    def test_level_past_int64_refused_in_sorted_order(self):
        # a level-70 interval is refused on its Python ints, at its place in
        # support order: after the text on a coarser row, and alone with
        # the level ValueError, not an OverflowError from an int64 array
        deep = iv(70, 5)
        with pytest.raises(TypeError, match="coefficient at 1/1 is text"):
            HaarExpansion(3, 1, {deep: 1.0, iv(1, 1): "7"})
        with pytest.raises(ValueError, match="interval 70/5 exceeds max level 3"):
            HaarExpansion(3, 1, {deep: 1.0})


class TestEvaluateHaar:
    def test_left_half(self):
        assert evaluate_haar(iv(0, 0), 0.25) == 1

    def test_right_half(self):
        assert evaluate_haar(iv(0, 0), 0.75) == -1

    def test_outside(self):
        assert evaluate_haar(iv(1, 0), 0.75) == 0

    def test_boundaries(self):
        assert evaluate_haar(iv(1, 1), 0.5) == 1
        assert evaluate_haar(iv(1, 1), 0.7499) == 1
        assert evaluate_haar(iv(1, 1), 0.75) == -1


class TestSquareFunction:
    def test_single_interval_constant_one(self):
        s = square_leaves(scalar(0, {(0, 0): 1.0}))
        assert at(s, 0.3) == 1.0

    def test_two_intervals(self):
        s = square_leaves(scalar(1, {(0, 0): 1.0, (1, 0): 1.0}))
        assert at(s, 0.25) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert at(s, 0.75) == 1.0

    def test_vector_euclidean(self):
        u = HaarExpansion(0, 2, {iv(0, 0): (3.0, 4.0)})
        assert at(square_leaves(u), 0.5) == 5.0


class TestQVariation:
    def test_q_two_matches_square_function(self):
        rng = np.random.default_rng(5)
        u = random_scalar(rng, 4)
        np.testing.assert_allclose(q_leaves(u, 2.0), square_leaves(u), rtol=1e-14)

    def test_q_one_sums_magnitudes(self):
        s = q_leaves(scalar(1, {(0, 0): 1.0, (1, 0): 1.0}), 1.0)
        assert at(s, 0.25) == 2.0
        assert at(s, 0.75) == 1.0

    def test_single_interval_any_q(self):
        s = q_leaves(scalar(1, {(1, 0): -2.5}), 0.7)
        assert at(s, 0.1) == pytest.approx(2.5, rel=1e-15)
        assert at(s, 0.6) == 0.0

    def test_vector_rejected(self):
        u = HaarExpansion(0, 2, {iv(0, 0): (1.0, 1.0)})
        with pytest.raises(ValueError, match="scalar expansions only"):
            tl_norm(u, 1.0, 2.0)

    def test_nan_q_rejected(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 0.5})
        for q in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="need 0 < p <= q"):
                tl_norm(u, 1.0, q)

    def test_pointwise_nonincreasing_in_q(self):
        # the q-aggregate of the per-leaf coefficient multiset shrinks as q
        # grows, so the step functions are ordered pointwise
        rng = np.random.default_rng(37)
        for _ in range(100):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            qs = sorted(rng.uniform(0.4, 5.0, size=3))
            steps = [q_leaves(u, q) for q in qs]
            assert np.all(steps[0] >= steps[1] * (1 - 1e-12))
            assert np.all(steps[1] >= steps[2] * (1 - 1e-12))


class TestHpNorm:
    def test_single_haar_any_p(self):
        u = scalar(0, {(0, 0): 1.0})
        for p in (0.5, 1.0, 1.5, 2.0):
            assert hp_norm(u, p) == 1.0

    def test_two_intervals_p_two(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert hp_norm(u, 2.0) == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_two_intervals_p_one(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert hp_norm(u, 1.0) == pytest.approx((math.sqrt(2) + 1) / 2, rel=1e-15)

    def test_p_out_of_range(self):
        u = scalar(0, {(0, 0): 1.0})
        for p in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                hp_norm(u, p)

    def test_zero_expansion(self):
        assert hp_norm(HaarExpansion.scalar(2, {}), 1.0) == 0.0

    def test_parseval_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            exact = math.fsum(
                haar_oracle.coefficient_square(u, i) * 2.0 ** (-i.level)
                for i in u.coeffs
            )
            assert hp_norm(u, 2.0) ** 2 == pytest.approx(exact, rel=1e-12)

    def test_pointwise_oracle_p_two(self):
        # the norm from the square function must match direct evaluation of
        # the signed Haar sum (orthogonality of the system); the sum is
        # constant on half-leaves, so each leaf integral averages two samples
        rng = np.random.default_rng(23)
        for _ in range(50):
            max_level = int(rng.integers(0, 7))
            u = random_scalar(rng, max_level)
            leaves = 1 << max_level
            total = 0.0
            for j in range(leaves):
                left = float(pointwise_haar_sum(u, (j + 0.25) / leaves)[0])
                right = float(pointwise_haar_sum(u, (j + 0.75) / leaves)[0])
                total += (left * left + right * right) / 2.0 / leaves
            assert hp_norm(u, 2.0) == pytest.approx(math.sqrt(total), rel=1e-12)


class TestTlNorm:
    def test_p_equals_q_two_matches_hp(self):
        rng = np.random.default_rng(3)
        u = random_scalar(rng, 5)
        assert tl_norm(u, 2.0, 2.0) == pytest.approx(hp_norm(u, 2.0), rel=1e-14)

    def test_single_haar_any_pq(self):
        u = scalar(0, {(0, 0): 1.0})
        for p, q in ((0.5, 1.0), (1.0, 3.0), (2.0, 4.0)):
            assert tl_norm(u, p, q) == pytest.approx(1.0, rel=1e-15)

    def test_p_above_q_rejected(self):
        u = scalar(0, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            tl_norm(u, 3.0, 2.0)

    def test_q_none_is_no_square_function(self):
        # one core takes q None as the square function; `tl_norm` refuses it
        for u in (scalar(0, {(0, 0): 1.0}), HaarExpansion(0, 2, {iv(0, 0): (1.0, 2.0)})):
            with pytest.raises(TypeError, match="tl_norm needs a number q, got None"):
                tl_norm(u, 1.0, None)

    def test_convexification_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            p, q = sorted(rng.uniform(0.5, 4.0, size=2))
            lhs = tl_norm(u, p, q)
            rhs = hp_norm(convexify(u, q), 2.0 * p / q) ** (2.0 / q)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestInfiniteQ:
    """Every entry that takes q rejects q = inf with "q must be finite"; at
    the limit the q-variation is the sup, which no entry computes."""

    U = scalar(3, {(0, 0): 0.5, (2, 1): 0.75})

    def test_norms_and_powers(self):
        for call in (
            lambda: tl_norm(self.U, 1.0, math.inf),
            lambda: convexify(self.U, math.inf),
            lambda: weights_tl(self.U, 1.0, math.inf),
            lambda: theta(1.5, math.inf),
            lambda: factorize(self.U, 1.5, math.inf),
        ):
            with pytest.raises(ValueError, match="q must be finite, got inf"):
                call()

    def test_multiplier_checks(self):
        m = weights_tl(self.U, 1.0, 3.0)
        phis = np.ones((1, 2))
        with pytest.raises(ValueError, match="does not match q=inf"):
            check_multiplier_bounds(self.U, 1.0, phis, m, q=math.inf)
        infinite = PietschMeasure(m.weights, m.normalizer, math.inf)
        with pytest.raises(ValueError, match="q must be finite"):
            check_multiplier_bounds(self.U, 1.0, phis, infinite, q=math.inf)

    def test_lattice_estimate(self):
        f = factorize(self.U, 1.5, 3.0)
        g = Factorization(x=f.x, y=f.y, theta=f.theta, p=f.p, q=math.inf)
        with pytest.raises(ValueError, match="q must be finite"):
            x0_norm_estimate(g, self.U, 4)

    def test_earlier_messages_kept(self):
        # q = inf meets the range check only after every check it passed before
        nan = math.nan
        with pytest.raises(ValueError, match="need 0 < p <= q"):
            tl_norm(self.U, nan, math.inf)
        with pytest.raises(ValueError, match="scalar expansions only"):
            convexify(HaarExpansion(0, 2, {iv(0, 0): (1.0, 1.0)}), math.inf)
        with pytest.raises(DegenerateThetaError):
            theta(math.inf, math.inf)
        with pytest.raises(ValueError, match="q must be positive, got -inf"):
            convexify(self.U, -math.inf)


class TestFloatRange:
    # the squares (and q-th powers) of these coefficients under- or overflow
    # although the norms themselves, about the scale, are representable
    @staticmethod
    def scaled(scale):
        return scalar(1, {(0, 0): scale, (1, 0): 0.5 * scale, (1, 1): -0.25 * scale})

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_norms_fail_closed(self, scale):
        u = self.scaled(scale)
        with pytest.raises(OverflowError, match="float range"):
            hp_norm(u, 1.0)
        with pytest.raises(OverflowError, match="float range"):
            tl_norm(u, 1.0, 2.0)

    def test_representable_scale_kept(self):
        u = self.scaled(1.0)
        small = self.scaled(1e-150)
        assert hp_norm(small, 1.0) == pytest.approx(1e-150 * hp_norm(u, 1.0), rel=1e-12)
        assert tl_norm(small, 1.0, 2.0) == pytest.approx(
            1e-150 * tl_norm(u, 1.0, 2.0), rel=1e-12
        )

    def test_zero_expansion_is_zero(self):
        assert tl_norm(HaarExpansion.scalar(2, {}), 1.0, 2.0) == 0.0


class TestConvexify:
    def test_q_two_absolute_value(self):
        u = scalar(1, {(0, 0): -3.0, (1, 1): 2.0})
        got = convexify(u, 2.0)
        assert got.coeffs[iv(0, 0)] == (3.0,)
        assert got.coeffs[iv(1, 1)] == (2.0,)

    def test_power_four(self):
        assert convexify(scalar(0, {(0, 0): 4.0}), 4.0).coeffs[iv(0, 0)] == (16.0,)

    def test_power_half(self):
        got = convexify(scalar(0, {(0, 0): 0.25}), 1.0)
        assert got.coeffs[iv(0, 0)] == (0.5,)

    def test_underflowing_power_raises(self):
        # 1e-3 ** 150 underflows to 0.0, which would drop the row 1/0
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1e-3})
        with pytest.raises(OverflowError, match="float range"):
            convexify(u, 300.0)

    def test_overflowing_power_raises(self):
        # Python's float pow raises its own OverflowError for 1e10 ** 50
        with pytest.raises(OverflowError, match="float range"):
            convexify(scalar(0, {(0, 0): 1e10}), 100.0)

    def test_nan_q_rejected(self):
        # the exponent is named, not a coefficient
        u = scalar(1, {(0, 0): 1.0, (1, 0): 0.5})
        for q in (float("nan"), 0.0, -2.0):
            with pytest.raises(ValueError, match=f"q must be positive, got {q}"):
                convexify(u, q)

    def test_subnormal_power_kept(self):
        got = convexify(scalar(0, {(0, 0): 1e-160}), 4.0)
        assert got.support == (iv(0, 0),)
        assert 0.0 < got.coeffs[iv(0, 0)][0] < 1e-300


class TestL2Norm:
    def test_single_haar(self):
        assert l2_norm(scalar(0, {(0, 0): 1.0})) == 1.0

    def test_two_intervals(self):
        u = scalar(1, {(0, 0): 1.0, (1, 0): 1.0})
        assert l2_norm(u) == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_matches_hp_norm_at_two(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            u = random_scalar(rng, int(rng.integers(0, 6)))
            assert l2_norm(u) == pytest.approx(hp_norm(u, 2.0), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_out_of_range_fails_closed(self, scale):
        # the squares overflow to inf at 1e160 and underflow to 0 at 1e-200:
        # the norm of a nonzero u would be inf or 0
        u = scalar(1, {(0, 0): scale, (1, 0): 0.5 * scale, (1, 1): -0.25 * scale})
        with pytest.raises(OverflowError, match="leaves the float range"):
            l2_norm(u)
        assert l2_norm(scalar(0, {})) == 0.0


def _fsum_outcome(fn, rows):
    """Each row's sum as `float.hex`, or the exception's type and message."""
    try:
        return [value.hex() for value in fn(rows)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _fsum_each(rows):
    return [math.fsum(row) for row in np.asarray(rows, dtype=float).tolist()]


def _binned(rows):
    return [_binned_sum(row) for row in np.asarray(rows, dtype=float)]


# finite floats of any exponent up to 2^1000, subnormals included
_summands = st.floats(min_value=-(2.0**1000), max_value=2.0**1000, allow_nan=False)


def _cancelling(values):
    """values, their negatives and a small remainder: the sum cancels all
    but the remainder."""
    return values + [-v for v in reversed(values)] + [2.0**-1060]


class TestFsumRows:
    """`haar._fsum_rows` is `math.fsum` of each row, bit for bit (compared
    by `float.hex`), with fsum's values and exceptions, on both sides of the
    crossover `_FSUM_MIN_ROW`; `_binned_sum` is its binned path on rows of
    any length."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_summands, min_size=1, max_size=40), min_size=1, max_size=4))
    def test_binned_matches_fsum(self, rows):
        width = max(map(len, rows))
        a = np.array([row + [0.0] * (width - len(row)) for row in rows])
        assert _fsum_outcome(_binned, a) == _fsum_outcome(_fsum_each, a)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_summands, min_size=1, max_size=30), st.randoms(use_true_random=False))
    def test_catastrophic_cancellation(self, values, random):
        row = _cancelling(values)
        random.shuffle(row)
        a = np.array([row])
        assert _fsum_outcome(_binned, a) == _fsum_outcome(_fsum_each, a)

    @pytest.mark.parametrize(
        "row",
        [
            [1.0, 2.0**-53],  # a tie, kept at the even 1.0
            [1.0, 2.0**-53, 2.0**-105],  # past the tie: up
            [1.0, -(2.0**-54), -(2.0**-106)],  # below the tie: down
            [1.0 + 2.0**-52, 2.0**-53],  # a tie at an odd last bit: up to even
            [2.0**-1074, 2.0**-1074, -(2.0**-1073)],  # subnormals to 0
            [2.0**-1022, -(2.0**-1074)],  # a normal minus a subnormal
            [5e-324] * 3,
            [1e300, -1e300, 1e-300],
            [-1.5, -2.25, -(2.0**-60)],
            [0.0, -0.0, 0.0],
            [-0.0],
            [1.0, -1.0],
        ],
    )
    def test_ties_and_edges(self, row):
        for length in (len(row), _FSUM_MIN_ROW, _FSUM_MIN_ROW + 1):
            a = np.array([row + [0.0] * (length - len(row))])
            want = _fsum_outcome(_fsum_each, a)
            assert _fsum_outcome(_binned, a) == want
            assert _fsum_outcome(_fsum_rows, a) == want

    @pytest.mark.parametrize("k", range(1, 21))
    def test_around_the_crossover(self, k):
        rng = np.random.default_rng([31, k])
        for n in (_FSUM_MIN_ROW - 1, _FSUM_MIN_ROW, _FSUM_MIN_ROW + 1):
            wide = rng.standard_normal((k, n)) * np.ldexp(1.0, rng.integers(-1074, 990, (k, n)))
            signed = rng.uniform(-1.0, 1.0, (k, n)) * np.ldexp(1.0, rng.integers(-60, 0, (k, n)))
            cancelling = np.concatenate([signed, -signed[:, ::-1]], axis=1)
            cancelling[:, 0] += 2.0**-80
            for a in (wide, signed, cancelling, np.zeros((k, n)), np.full((k, n), -0.0), -signed):
                assert _fsum_outcome(_fsum_rows, a) == _fsum_outcome(_fsum_each, a)

    def test_rows_of_several_steps(self):
        rng = np.random.default_rng(32)
        n = 2 * _BIN_ENTRIES + 17
        for k in (1, 3):
            wide = rng.standard_normal((k, n)) * np.ldexp(1.0, rng.integers(-1074, 990, (k, n)))
            cancelling = np.concatenate([wide, -wide[:, ::-1]], axis=1)
            cancelling[:, n] = 2.0**-1070
            for a in (wide, cancelling):
                assert _fsum_outcome(_fsum_rows, a) == _fsum_outcome(_fsum_each, a)

    def test_empty(self):
        for shape in ((3, 0), (0, 0), (0, _FSUM_MIN_ROW)):
            assert _fsum_rows(np.zeros(shape)) == [0.0] * shape[0]

    @pytest.mark.parametrize(
        "row",
        [
            [1.0, math.inf],
            [1.0, math.nan],
            [math.inf, 1.0, -math.inf],  # fsum's ValueError
            [-math.inf, -math.inf],
            [2.0**1023, 2.0**1023, -(2.0**1023)],  # fsum's intermediate overflow
            [2.0**1010] * 4,  # above 2^1000 but no overflow
            [1.7976931348623157e308, -1.7976931348623157e308],
        ],
    )
    def test_non_finite_and_huge_as_fsum(self, row):
        for k in (1, 3):
            a = np.zeros((k, _FSUM_MIN_ROW + 5))
            a[k - 1, : len(row)] = row
            a[0, -1] += 1.0
            want = _fsum_outcome(_fsum_each, a)
            assert _fsum_outcome(_fsum_rows, a) == want


class TestMultiply:
    """The multiplier checks' product norms (`_product_norms`), which build
    no product expansion."""

    def test_identity_multiplier(self):
        u = scalar(2, {(0, 0): 1.0, (2, 3): -2.0})
        ones = np.ones((1, len(u.support)))
        for p in (0.5, 1.0, 2.0):
            assert _product_norms(u, ones, p, None, _support_grid(u)) == [hp_norm(u, p)]

    def test_zero_multiplier(self):
        u = scalar(2, {(0, 0): 1.0})
        assert _product_norms(u, np.zeros((1, 1)), 1.0, None, _support_grid(u)) == [0.0]

    def test_contraction_property(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            u = random_scalar(rng, int(rng.integers(0, 7)))
            p = float(rng.uniform(0.3, 2.0))
            phi = rng.uniform(-1, 1, (1, len(u.support)))
            bound = float(np.abs(phi).max(initial=0.0))
            [norm] = _product_norms(u, phi, p, None, _support_grid(u))
            assert norm <= bound * hp_norm(u, p) * (1 + 1e-12)


class TestSquares:
    """The numpy squared lengths against the `math.fsum` ones they replace."""

    EXTREMES = [
        0.0, 1.0, -3.5, 1e300, -1e300, 1e-300, 5e-324, -3.1e-310, 2.2e-308,
        1.3407807929942596e154, 9.48e153, 1e154, 1e200, math.ulp(1.0),
    ]

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_bit_for_bit_square_length(self, dimension):
        rng = np.random.default_rng(5151)
        # every combination of extremes, and random rows spanning the exponents
        extremes = np.array(list(itertools.product(self.EXTREMES, repeat=dimension)))
        spread = np.ldexp(
            rng.standard_normal((5000, dimension)),
            rng.integers(-1080, 1021, (5000, dimension)),
        )
        values = np.concatenate((extremes, spread))
        want = np.array([_square_length(row) for row in values.tolist()])
        assert np.array_equal(_squares(values), want)
        assert np.isinf(want).any() and (want == 0.0).any()
        # a leading batch axis reads the same lengths
        batch = values[: len(values) // 4 * 4].reshape(4, -1, dimension)
        assert np.array_equal(_squares(batch).ravel(), want[: len(values) // 4 * 4])

    def test_overflowing_rows_are_inf(self):
        # a square past the float range, a finite pair whose sum is past it,
        # and a sum just inside it
        values = np.array([[1e200, 0.0], [1e154, 1e154], [1e154, 1e153]])
        assert _squares(values).tolist() == [math.inf, math.inf, 1e154**2 + 1e153**2]
        assert _square_length([1e154, 1e154]) == math.inf
        u = HaarExpansion(1, 2, {iv(0, 0): (1e200, 1e200), iv(1, 0): (3e-320, 0.0)})
        assert u.squares.tolist() == [math.inf, 0.0]


def _python_pow(bases, exponent):
    """Python's float pow per element of a 1-d array; raises what the first
    failing element raises."""
    return np.fromiter(map(pow, bases.tolist(), itertools.repeat(exponent)), float, len(bases))


def _pow_outcome(fn, bases, exponent):
    """fn(bases, exponent), or the repr of the ArithmeticError it raises."""
    try:
        return fn(bases, exponent)
    except ArithmeticError as exc:
        return repr(exc)


class TestPow:
    """`_pow` is Python's float pow per element, bit for bit: it relies on
    `np.float_power` calling libm `pow` per element with no SIMD loop."""

    # every (p, q) of the test pools
    PQS = ((0.5, 1.0), (1.0, 3.0), (1.5, 2.0), (2.0, 4.0), (4.0 / 3.0, 2.0), (1.5, 3.0),
           (1.25, 7.5), (1.5, 150.0), (1.5, 300.0), (1.0, 4.0), (0.7, 0.7))

    def _exponents(self):
        """Every exponent the library raises support rows to: 2 and s = q,
        q/2 (convexify), 1/q (the y factor), and -theta, 1/(1-theta), theta
        and 1-theta (the x factor and its check)."""
        exponents = {2.0}
        for p, q in self.PQS:
            exponents |= {q, q / 2.0, 1.0 / q}
            if 1.0 < p < q:
                th = theta(p, q)
                exponents |= {-th, 1.0 / (1.0 - th), th, 1.0 - th}
        return sorted(exponents)

    def _bases(self):
        rng = np.random.default_rng(4242)
        special = [0.0, -0.0, 1.0, math.inf, math.nan, 5e-324, 1e-310, 2.2250738585072014e-308,
                   1e-300, 1e300, 1.7976931348623157e308, 0.5, 2.0, 10.0]
        spread = np.ldexp(rng.uniform(0.5, 1.0, 20_000), rng.integers(-1074, 1025, 20_000))
        return np.concatenate((special, rng.uniform(0.0, 1.0, 100_000), spread))

    def test_bit_for_bit_python_pow(self):
        bases = self._bases()
        for exponent in self._exponents():
            outcomes = [_pow_outcome(pow, b, exponent) for b in bases.tolist()]
            ok = np.array([isinstance(o, float) for o in outcomes])
            want = _python_pow(bases[ok], exponent)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _pow(bases[ok], exponent)
            same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
            assert same.all(), (
                f"numpy {np.__version__}: np.float_power differs from Python's pow at "
                f"exponent {exponent!r} on {int((~same).sum())} of {len(want)} bases, "
                f"first {bases[ok][~same][:3].tolist()}"
            )
            # each failing base raises what Python's pow raises for it
            for base in bases[~ok].tolist()[:200]:
                got = _pow_outcome(_pow, np.array([1.0, base, 0.5]), exponent)
                assert got == _pow_outcome(pow, base, exponent)

    def test_exceptions_at_first_failing_element(self):
        for bases, exponent in (
            ([0.5, 5e-324, 0.0], -2.0),
            ([0.5, 0.0, 5e-324], -2.0),
            ([1e300, 1.0, 0.0], 2.0),
            ([[1.0, 2.0], [0.0, 1e300]], -0.5),
            ([[1.0, 1e300], [0.0, 1.0]], 1.5),
            ([1e300], 1.0 / (1.0 - theta(1.5, 3.0))),
            ([0.0, 1.0], -theta(1.5, 3.0)),
        ):
            array = np.array(bases)
            want = _pow_outcome(_python_pow, array.ravel(), exponent)
            assert isinstance(want, str)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _pow_outcome(_pow, array, exponent) == want

    def test_no_exception_where_python_has_none(self):
        # inf bases and infinite exponents are special cases of pow, not errors
        bases = np.array([0.0, 0.5, 1.0, 2.0, math.inf, math.nan, 1e300])
        for exponent in (math.inf, -math.inf, math.nan, 0.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _pow(bases, exponent)
            assert np.array_equal(got, _python_pow(bases, exponent), equal_nan=True)
        assert _pow(np.array([math.inf, 0.0]), 2.0).tolist() == [math.inf, 0.0]
        assert _pow(np.zeros((0, 3)), -1.0).shape == (0, 3)


class TestLeafSums:
    def test_accumulates_squares(self):
        u = HaarExpansion(1, 2, {iv(0, 0): (1.0, 2.0), iv(1, 1): (2.0, 0.0)})
        np.testing.assert_allclose(haar_oracle.leaf_values(u, u.squares), [5.0, 9.0])
