"""Interval combinatorics against brute-force oracles."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmult import (
    DyadicInterval,
    EmptyFamilyError,
    IntervalFamily,
    carleson_constant,
    generation_decay_verdicts,
    generations,
    is_block,
)
from haarmult.dyadic import _layer_leaves

import dyadic_oracle


def iv(level, pos):
    return DyadicInterval(level, pos)


def maximal(fam):
    """The maximal members: those without a parent in `parents()`."""
    return [i for i, up in zip(fam, fam.parents()) if up < 0]


def decay_verdict(fam, interval, layer):
    """The decay verdict of one member at one layer, read from its row of
    `generation_decay_verdicts`."""
    row = fam.intervals.index(interval)
    return generation_decay_verdicts(fam, layer + 1)[row][layer]


def family(*pairs):
    return IntervalFamily(iv(level, pos) for level, pos in pairs)


# brute-force oracles: pairwise containment only, no ancestor arithmetic

def brute_carleson(intervals):
    best = Fraction(0)
    for outer in intervals:
        packed = sum(
            (inner.measure for inner in intervals if outer.contains(inner)),
            Fraction(0),
        )
        best = max(best, packed / outer.measure)
    return best


def brute_maximal(intervals):
    return {
        i
        for i in intervals
        if not any(j != i and j.contains(i) for j in intervals)
    }


def brute_generations(intervals):
    remaining = set(intervals)
    layers = []
    while remaining:
        layer = brute_maximal(remaining)
        layers.append(layer)
        remaining -= layer
    return layers


intervals_st = st.integers(0, 6).flatmap(
    lambda n: st.builds(DyadicInterval, st.just(n), st.integers(0, 2**n - 1))
)
families_st = st.sets(intervals_st, min_size=1, max_size=40).map(IntervalFamily)


@st.composite
def sub_collections_st(draw):
    """An ambient family and a sub-collection of it: members under one member,
    each kept or not (so intermediate members get skipped), with or without
    that member; the empty collection is among them."""
    ambient = draw(families_st)
    top = draw(st.sampled_from(ambient.intervals))
    under = [i for i in ambient if top.contains(i) and i != top]
    keep = draw(st.lists(st.booleans(), min_size=len(under), max_size=len(under)))
    picked = [i for i, kept in zip(under, keep) if kept]
    if draw(st.booleans()):
        picked.append(top)
    return IntervalFamily(picked, max_level=ambient.max_level), ambient


class TestDyadicInterval:
    def test_measure_unit(self):
        assert iv(0, 0).measure == 1

    def test_measure_level_two(self):
        assert iv(2, 3).measure == Fraction(1, 4)

    def test_measure_deep(self):
        assert iv(10, 0).measure == Fraction(1, 1024)

    def test_invalid_position_rejected(self):
        with pytest.raises(ValueError):
            iv(2, 4)
        with pytest.raises(ValueError):
            iv(1, -1)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            iv(-1, 0)
        with pytest.raises(ValueError, match="position must lie"):
            DyadicInterval(level=3, position=8)

    def test_is_a_level_position_tuple(self):
        interval = DyadicInterval(level=2, position=3)
        assert interval == iv(2, 3) == (2, 3)
        assert hash(interval) == hash((2, 3))
        level, position = interval
        assert (level, position) == (interval.level, interval.position) == (2, 3)
        assert repr(interval) == "DyadicInterval(level=2, position=3)"
        assert str(interval) == "2/3"

    def test_sorts_by_level_then_position(self):
        intervals = [iv(2, 0), iv(0, 0), iv(1, 1), iv(2, 3), iv(1, 0)]
        assert sorted(intervals) == [iv(0, 0), iv(1, 0), iv(1, 1), iv(2, 0), iv(2, 3)]
        assert iv(1, 1) < iv(2, 0)

    def test_pickle_and_copy_round_trip(self):
        interval = iv(5, 17)
        for clone in (pickle.loads(pickle.dumps(interval)), copy.deepcopy(interval)):
            assert clone == interval
            assert type(clone) is DyadicInterval

    def test_immutable(self):
        interval = iv(1, 0)
        with pytest.raises(AttributeError):
            interval.level = 2
        with pytest.raises(AttributeError):
            interval.extra = 1
        with pytest.raises(ValueError):
            interval._replace(position=2)

    def test_contains_half(self):
        assert iv(0, 0).contains(iv(1, 0))

    def test_disjoint_halves(self):
        assert not iv(1, 0).contains(iv(1, 1))

    def test_contains_reflexive(self):
        assert iv(3, 5).contains(iv(3, 5))

    @given(intervals_st, intervals_st)
    def test_nested_or_disjoint(self, a, b):
        nested = a.contains(b) or b.contains(a)
        disjoint = a.right <= b.left or b.right <= a.left
        assert nested != disjoint

    @given(intervals_st, intervals_st)
    def test_contains_matches_endpoints(self, a, b):
        assert a.contains(b) == (a.left <= b.left and b.right <= a.right)


class TestIntervalFamily:
    """A family is hashable and sits in every `AtomicPiece`, so its members,
    cap and ancestor table are set once: assignment and deletion raise, and
    copies and pickles go through the validating constructor."""

    def _family(self):
        family = IntervalFamily([iv(0, 0), iv(1, 0)], 3)
        assert family.parents() == (-1, 0)
        return family

    def _assert_refused(self, family):
        for name in ("intervals", "max_level", "_set", "_ancestry", "extra"):
            with pytest.raises(AttributeError, match="IntervalFamily is immutable"):
                setattr(family, name, (iv(1, 0),))
            with pytest.raises(AttributeError, match="IntervalFamily is immutable"):
                delattr(family, name)

    def test_assignment_and_deletion_refused(self):
        family = self._family()
        self._assert_refused(family)
        assert len(family) == 2 and iv(0, 0) in family and family.max_level == 3
        assert family.parents() == (-1, 0)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_pickle_and_copy_rebuild_an_equal_family(self, round_trip):
        family = self._family()
        clone = round_trip(family)
        assert type(clone) is IntervalFamily and clone == family
        assert clone.intervals == family.intervals and clone.max_level == 3
        assert clone.parents() == (-1, 0) and hash(clone) == hash(family)
        self._assert_refused(clone)


class TestCarleson:
    def test_singleton(self):
        assert carleson_constant(family((0, 0))) == 1

    def test_nested_chain(self):
        assert carleson_constant(family((0, 0), (1, 0), (2, 0))) == Fraction(7, 4)

    def test_full_three_levels(self):
        full = IntervalFamily(
            iv(level, pos) for level in range(3) for pos in range(2**level)
        )
        assert carleson_constant(full) == 3

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            carleson_constant(IntervalFamily([]))

    def test_disjoint_iff_one(self):
        assert carleson_constant(family((1, 0), (1, 1))) == 1
        assert carleson_constant(family((2, 0), (2, 1), (1, 1))) == 1

    @given(families_st)
    def test_matches_bruteforce(self, fam):
        assert carleson_constant(fam) == brute_carleson(fam.intervals)

    @given(families_st)
    def test_at_least_one(self, fam):
        value = carleson_constant(fam)
        disjoint = all(
            a == b or not (a.contains(b) or b.contains(a))
            for a in fam
            for b in fam
        )
        assert value >= 1
        assert (value == 1) == disjoint


class TestAncestorTable:
    def test_nearest_ancestor_skips_non_members(self):
        fam = family((0, 0), (2, 1), (3, 2), (1, 1))
        # members in (level, position) order: 0/0, 1/1, 2/1, 3/2
        assert fam.parents() == (-1, 0, 0, 2)
        assert fam.depths() == [0, 1, 1, 2]

    def test_deep_family_matches_stack_walk(self):
        # heap codes past level 62 overflow int64, so the table is built on
        # Python ints there
        fam = family(
            (0, 0), (1, 1), (62, (1 << 62) - 1), (63, 5), (64, 10), (64, 11),
            (69, (1 << 69) - 1), (70, (1 << 70) - 1), (70, 0),
        )
        assert fam.parents() == dyadic_oracle.parents(fam)
        assert fam.parents() == (-1, 0, 1, 0, 3, 3, 2, 0, 6)

    @pytest.mark.parametrize("levels", [(0, 20, 40), (0, 61, 70)])
    def test_gapped_levels_match_stack_walk(self, levels):
        # the search steps only through the levels present; past level 62 it
        # runs on Python ints
        rng = random.Random(levels[-1])
        for _ in range(40):
            members = set()
            for _ in range(rng.randint(1, 12)):
                # a chain down through the levels, some links left out
                leaf = rng.randrange(1 << levels[-1])
                for level in levels:
                    if rng.random() < 0.7:
                        members.add(iv(level, leaf >> (levels[-1] - level)))
            fam = IntervalFamily(members or [iv(0, 0)])
            assert fam.parents() == dyadic_oracle.parents(fam)

    @given(families_st)
    def test_parents_are_nearest_ancestors(self, fam):
        members = fam.intervals
        for k, up in enumerate(fam.parents()):
            above = [j for j in range(len(members))
                     if j != k and members[j].contains(members[k])]
            assert up == max(above, key=lambda j: members[j].level, default=-1)
            assert up < k

    @given(families_st)
    def test_depths_match_reference(self, fam):
        assert fam.depths() == list(
            dyadic_oracle.ancestor_depth(fam, i) for i in fam
        )


class TestMaximalAndGenerations:
    def test_nested_pair(self):
        assert set(maximal(family((0, 0), (1, 0)))) == {iv(0, 0)}

    def test_disjoint_pair(self):
        got = maximal(family((1, 0), (1, 1)))
        assert set(got) == {iv(1, 0), iv(1, 1)}

    def test_generations_singleton(self):
        assert [set(g) for g in generations(family((0, 0)))] == [{iv(0, 0)}]

    def test_generations_chain(self):
        layers = generations(family((0, 0), (1, 0), (2, 0)))
        assert [set(g) for g in layers] == [{iv(0, 0)}, {iv(1, 0)}, {iv(2, 0)}]

    def test_generations_empty(self):
        assert generations(IntervalFamily([])) == []

    @given(families_st)
    def test_maximal_matches_bruteforce(self, fam):
        assert set(maximal(fam)) == brute_maximal(fam.intervals)

    @given(families_st)
    def test_maximal_disjoint_and_covering(self, fam):
        tops = maximal(fam)
        for i, a in enumerate(tops):
            for b in tops[i + 1 :]:
                assert not (a.contains(b) or b.contains(a))
        for member in fam:
            assert any(top.contains(member) for top in tops)

    @given(families_st)
    def test_generations_match_peeling_definition(self, fam):
        got = [set(g) for g in generations(fam)]
        assert got == brute_generations(fam.intervals)

    @given(families_st)
    def test_generations_partition(self, fam):
        layers = generations(fam)
        combined = [i for layer in layers for i in layer]
        assert sorted(combined) == list(fam.intervals)


class TestDecayBound:
    def test_layer_zero_always_true(self):
        fam = family((0, 0), (1, 0), (1, 1), (3, 2))
        for interval in fam:
            assert decay_verdict(fam, interval, 0)

    def test_chain_layer_three(self):
        chain = family(*((j, 0) for j in range(6)))
        assert decay_verdict(chain, iv(0, 0), 3)

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            dyadic_oracle.generation_decay_check(family((1, 0)), iv(0, 0), 1)

    def test_exhausted_layers_true(self):
        assert decay_verdict(family((0, 0)), iv(0, 0), 5)

    def test_chain_layer_value(self):
        # layer 3 of the restricted family is the single interval [0, 2^-3)
        chain = family(*((j, 0) for j in range(6)))
        layers = generations(dyadic_oracle.restrict(chain, iv(0, 0)))
        assert set(layers[3]) == {iv(3, 0)}

    @given(families_st)
    @settings(max_examples=60)
    def test_holds_on_random_families(self, fam):
        depth = len(generations(fam))
        for interval in fam.intervals[:10]:
            for layer in range(depth + 1):
                assert decay_verdict(fam, interval, layer)


class TestDecayVerdicts:
    def test_matches_per_call_check(self):
        fam = family((0, 0), (1, 0), (2, 0), (2, 1), (3, 2), (3, 7), (4, 15))
        layers = len(generations(fam)) + 2
        assert generation_decay_verdicts(fam, layers) == [
            [dyadic_oracle.generation_decay_check(fam, interval, n) for n in range(layers)]
            for interval in fam
        ]

    def test_layer_counts(self):
        assert generation_decay_verdicts(family((0, 0), (1, 0)), 0) == [[], []]
        assert generation_decay_verdicts(IntervalFamily([]), 3) == []
        with pytest.raises(ValueError):
            generation_decay_verdicts(family((0, 0)), -1)

    @given(families_st)
    @settings(max_examples=60)
    def test_matches_reference(self, fam):
        layers = len(generations(fam)) + 1
        assert generation_decay_verdicts(fam, layers) == [
            [dyadic_oracle.generation_decay_check(fam, i, n) for n in range(layers)]
            for i in fam
        ]


def deep_family(rng, max_level):
    """A few chains of nested members down to random leaves of level
    max_level, at random levels, so that members nest many deep."""
    members = set()
    for _ in range(rng.randint(1, 5)):
        leaf = iv(max_level, rng.randrange(1 << max_level))
        for level in rng.sample(range(max_level + 1), rng.randint(1, 8)):
            members.add(leaf.ancestor(level))
    return IntervalFamily(members, max_level)


class TestDecayVerdictsDeep:
    """Leaf counts are int64 up to max level 62 and Python ints past it."""

    @pytest.mark.parametrize("max_level", [61, 62, 63, 90])
    def test_matches_reference(self, max_level):
        rng = random.Random(max_level)
        for _ in range(15):
            fam = deep_family(rng, max_level)
            layers = len(generations(fam)) + 1
            assert generation_decay_verdicts(fam, layers) == [
                [dyadic_oracle.generation_decay_check(fam, i, n) for n in range(layers)]
                for i in fam
            ]
            levels = np.array([i.level for i in fam], dtype=np.int64)
            counts = _layer_leaves(levels, np.array(fam.parents()), max_level, layers)
            assert counts.dtype == (np.int64 if max_level <= 62 else object)
            assert counts.shape == (len(fam), layers)
            scale = 1 << max_level
            for interval, row in zip(fam, counts.tolist()):
                measures = dyadic_oracle.layer_measures(fam, interval)
                padded = measures + [0] * (layers - len(measures))
                assert [Fraction(n, scale) for n in row] == padded


class TestIsBlock:
    def test_singleton_block(self):
        ambient = family((0, 0), (1, 1))
        assert is_block(family((0, 0)), ambient)

    def test_gap_breaks_block(self):
        ambient = family((0, 0), (1, 0), (2, 0))
        candidate = family((0, 0), (2, 0))
        assert not is_block(candidate, ambient)

    def test_family_is_its_own_block(self):
        ambient = family((0, 0), (1, 0))
        assert is_block(ambient, ambient)

    def test_two_maximal_fails(self):
        ambient = family((1, 0), (1, 1))
        assert not is_block(ambient, ambient)

    def test_subset_precondition(self):
        with pytest.raises(ValueError):
            is_block(family((1, 0)), family((0, 0)))

    def test_gap_only_counts_ambient_members(self):
        # the interval between (2,0) and (0,0) is not in the ambient family,
        # so skipping it does not break the block condition
        ambient = family((0, 0), (1, 1), (2, 0))
        assert is_block(family((0, 0), (2, 0)), ambient)
        assert is_block(family((0, 0), (1, 1)), ambient)

    def test_empty_collection_is_not_a_block(self):
        assert not is_block(IntervalFamily([]), family((0, 0)))

    def test_every_sub_collection_matches_reference(self):
        # a chain 0/0 > 1/0 > 2/1 with a side branch 1/1 > 3/6 and a
        # disjoint leaf 3/1: all 64 sub-collections
        ambient = family((0, 0), (1, 0), (2, 1), (1, 1), (3, 6), (3, 1))
        verdicts = set()
        for size in range(len(ambient) + 1):
            for picked in combinations(ambient.intervals, size):
                collection = IntervalFamily(picked, max_level=ambient.max_level)
                expected = dyadic_oracle.is_block(collection, ambient)
                assert is_block(collection, ambient) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    @given(sub_collections_st())
    @settings(max_examples=300)
    def test_matches_reference_on_random_sub_collections(self, pair):
        collection, ambient = pair
        assert is_block(collection, ambient) == dyadic_oracle.is_block(
            collection, ambient
        )
