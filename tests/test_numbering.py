"""Slice codes, exact cylinder measures over table numberings, and lowness sums."""

import random
from itertools import chain, combinations

import pytest

from dnrlab.asm import DIVERGE_INDEX, IDENTITY_INDEX, ZERO_INDEX, const_index
from dnrlab.dyadic import WIDTH_LIMIT, ZERO, DyadicRational
from dnrlab.errors import CombinatorialBlowup, InsufficientOracle, WitnessBudgetExceeded
from dnrlab.machine import gamma, gamma_inverse
from dnrlab.numbering import (
    TableNumbering,
    brute_force_union_measure,
    lowness_bound_check,
    schnorr_measure,
    snr_from_immune_oracle,
    union_cylinder_measure,
)
from dnrlab.oracle import EVENS, ODDS, SetOracle

H_ONE = const_index(1)


class TestSnrValue:
    def test_evens_slice_code(self):
        assert snr_from_immune_oracle(EVENS, H_ONE, 0, 10_000) == 5

    def test_odds_slice_code(self):
        assert snr_from_immune_oracle(ODDS, H_ONE, 0, 10_000) == 10

    def test_slice_size_matches_the_bound(self):
        for e in range(6):
            code = snr_from_immune_oracle(EVENS, H_ONE, e, 10_000)
            assert len(gamma(code)) == 2

    def test_thin_oracle(self):
        with pytest.raises(InsufficientOracle):
            snr_from_immune_oracle(SetOracle(frozenset({3})), H_ONE, 0, 10_000)

    def test_budget(self):
        with pytest.raises(WitnessBudgetExceeded):
            snr_from_immune_oracle(EVENS, DIVERGE_INDEX, 0, 10_000)


class TestUnionMeasure:
    def test_empty_family(self):
        assert union_cylinder_measure([]) == ZERO

    def test_single_pair(self):
        assert union_cylinder_measure([frozenset({0, 1})]) == DyadicRational(1, 2)

    def test_disjoint_supports(self):
        got = union_cylinder_measure([frozenset({0}), frozenset({1, 2})])
        want = DyadicRational(5, 3)  # 1/2 + 1/4 - 1/8
        assert got == want

    def test_duplicates_collapse(self):
        one = union_cylinder_measure([frozenset({0, 1})])
        two = union_cylinder_measure([frozenset({0, 1}), frozenset({0, 1})])
        assert one == two

    def test_empty_constraint_is_everything(self):
        assert union_cylinder_measure([frozenset(), frozenset({3})]) == DyadicRational(1)

    def test_term_cap(self):
        family = [frozenset({i}) for i in range(8)]
        with pytest.raises(CombinatorialBlowup) as info:
            union_cylinder_measure(family, term_cap=100)
        assert info.value.upper_bound == DyadicRational(8, 1)

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            family = [
                frozenset(rng.sample(range(10), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 5))
            ]
            assert union_cylinder_measure(family) == brute_force_union_measure(family)


    def test_at_the_brute_force_cap(self):
        rng = random.Random(13)
        for _ in range(3):
            family = [frozenset(rng.sample(range(22), rng.randint(1, 6))) | {21}
                      for _ in range(rng.randint(2, 8))]
            assert union_cylinder_measure(family) == brute_force_union_measure(family)


def naive_union_measure(sets):
    """The prefix count one prefix at a time: the mirror of
    brute_force_union_measure, with the same guards."""
    family = [s for s in set(sets)]
    if not family:
        return ZERO
    width = max(max(s) for s in family if s) + 1 if any(family) else 0
    if width > 22:
        raise ValueError(f"brute force capped at 22 coordinates, got {width}")
    if any(not s for s in family):
        return DyadicRational(1)
    masks = [gamma_inverse(s) for s in family]
    hits = sum(1 for prefix in range(1 << width) if any(prefix & m == m for m in masks))
    return DyadicRational(hits, width)


def _random_family(rng, width):
    """One to four random nonempty subsets of range(width), one of them
    holding width - 1 so the family spans exactly width coordinates."""
    family = [frozenset(rng.sample(range(width), rng.randint(1, min(width, 5))))
              for _ in range(rng.randint(1, 4))]
    family[0] |= {width - 1}
    return family


class TestBruteForceMeasure:
    def test_exhaustive_small_families(self):
        subsets = [frozenset(c) for c in chain.from_iterable(
            combinations(range(4), r) for r in range(5))]
        for r in range(4):
            for family in combinations(subsets, r):
                assert brute_force_union_measure(family) == naive_union_measure(family)

    def test_random_families(self):
        rng = random.Random(5)
        for width in chain.from_iterable([range(1, 17)] * 8):
            family = _random_family(rng, width)
            assert brute_force_union_measure(family) == naive_union_measure(family)

    def test_random_family_at_the_cap(self):
        family = _random_family(random.Random(22), 22)
        assert brute_force_union_measure(family) == naive_union_measure(family)

    def test_no_family_is_zero(self):
        assert brute_force_union_measure([]) == ZERO

    def test_empty_member_is_everything(self):
        assert brute_force_union_measure([frozenset({5}), frozenset()]) == DyadicRational(1)

    def test_more_than_22_coordinates_refused(self):
        assert brute_force_union_measure([frozenset({21})]) == DyadicRational(1, 1)
        with pytest.raises(ValueError, match="22 coordinates"):
            brute_force_union_measure([frozenset({22})])


class TestSchnorrMeasure:
    def test_no_qualifying_sets(self):
        numbering = TableNumbering((frozenset({0}), frozenset({1})))
        assert schnorr_measure(numbering, 0, 1) == ZERO

    def test_single_pair_at_level_one(self):
        numbering = TableNumbering((frozenset(), frozenset({0, 1})))
        assert schnorr_measure(numbering, 0, 1) == DyadicRational(1, 2)

    def test_disjoint_supports_formula(self):
        d1, d2 = frozenset({0, 1}), frozenset({2, 3, 4, 5})
        numbering = TableNumbering((frozenset(), d1, d2))
        want = DyadicRational(19, 6)  # 1/4 + 1/16 - 1/64
        assert schnorr_measure(numbering, 0, 2) == want

    def test_toy_backed_numbering(self):
        first_five_evens = frozenset({0, 2, 4, 6, 8})
        numbering = TableNumbering((first_five_evens, frozenset(), first_five_evens))
        # only e = 2 qualifies: 5 members >= 4; the set is the first 5 evens
        assert schnorr_measure(numbering, 1, 2) == DyadicRational(1, 5)

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(25):
            sets = [frozenset()] + [
                frozenset(rng.sample(range(2 * e, 2 * e + 6), min(6, 2 * e + rng.randint(0, 2))))
                for e in range(1, 4)
            ]
            numbering = TableNumbering(tuple(sets))
            got = schnorr_measure(numbering, 0, 3)
            qualifying = [s for e, s in enumerate(sets) if e > 0 and len(s) >= 2 * e]
            assert got == brute_force_union_measure(qualifying)


class TestLownessBound:
    def test_identity_family_holds(self):
        verdict = lowness_bound_check(H_ONE, IDENTITY_INDEX, IDENTITY_INDEX, 0, 10, 10_000)
        assert verdict.holds
        # sum of 2^-(e+1) for e in 1..10
        want = DyadicRational(1023, 11)  # 1/2 - 1/2^11
        assert verdict.partial_sum == want

    def test_flat_bound_violates_at_two(self):
        verdict = lowness_bound_check(
            const_index(4), IDENTITY_INDEX, ZERO_INDEX, 1, 5, 10_000)
        assert not verdict.holds
        assert verdict.first_violation == 2
        assert verdict.violating_term == DyadicRational(2)

    def test_empty_range(self):
        verdict = lowness_bound_check(H_ONE, IDENTITY_INDEX, IDENTITY_INDEX, 5, 5, 10_000)
        assert verdict.holds
        assert verdict.partial_sum == ZERO

    def test_budget(self):
        with pytest.raises(WitnessBudgetExceeded):
            lowness_bound_check(H_ONE, DIVERGE_INDEX, ZERO_INDEX, 0, 3, 10_000)

    def test_no_e_past_the_width_limit_is_evaluated(self):
        # every term is 0, so only the bound on e stops the loop
        assert lowness_bound_check(ZERO_INDEX, IDENTITY_INDEX, IDENTITY_INDEX,
                                   0, WIDTH_LIMIT, 100).holds
        with pytest.raises(CombinatorialBlowup, match="e_max 8193 is past 8192"):
            lowness_bound_check(ZERO_INDEX, IDENTITY_INDEX, IDENTITY_INDEX,
                                0, WIDTH_LIMIT + 1, 100)
        # nothing to evaluate: the range above c is empty
        assert lowness_bound_check(H_ONE, IDENTITY_INDEX, IDENTITY_INDEX,
                                   10**9, 10**9, 100).holds

    def test_violation_below_the_width_limit_is_still_the_verdict(self):
        verdict = lowness_bound_check(
            const_index(4), IDENTITY_INDEX, ZERO_INDEX, 1, 10**9, 10_000)
        assert not verdict.holds
        assert verdict.first_violation == 2

    def test_jsonable(self):
        verdict = lowness_bound_check(H_ONE, IDENTITY_INDEX, IDENTITY_INDEX, 0, 4, 10_000)
        blob = verdict.to_jsonable()
        assert blob["holds"] is True
        assert DyadicRational.from_jsonable(blob["partial_sum"]) == verdict.partial_sum
