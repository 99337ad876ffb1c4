import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import discordant_pairs, make_ranking as R
from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    HumanType,
    Population,
    Ranking,
    ValueProfile,
    apply_swap,
    borda_values,
    kendall_tau,
    top_item_values,
)
from shortlist.errors import DimensionError, DomainError
from shortlist.models import ExplicitModel, MallowsModel, PlackettLuceModel

permutations = st.integers(2, 8).flatmap(
    lambda m: st.permutations(list(range(m)))
)


class TestRanking:
    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            Ranking((0, 0, 1))
        with pytest.raises(DomainError):
            Ranking((1, 2, 3))
        with pytest.raises(DomainError):
            Ranking(())

    def test_accessors(self):
        r = R(2, 0, 1)
        assert r.m == 3
        assert r.position(2) == 0 and r.position(1) == 2
        assert r.top(2) == frozenset({0, 2})
        assert list(r) == [2, 0, 1]

    def test_unknown_item(self):
        with pytest.raises(DomainError):
            R(0, 1, 2).position(3)


class TestKendallTau:
    def test_identity(self):
        assert kendall_tau(R(0, 1, 2), R(0, 1, 2)) == 0

    def test_full_reversal(self):
        assert kendall_tau(R(0, 1, 2), R(2, 1, 0)) == 3

    def test_adjacent_swap(self):
        # pairs (0,1), (0,2), (1,2): only (0,1) flips
        assert kendall_tau(R(0, 1, 2), R(1, 0, 2)) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kendall_tau(R(0, 1), R(0, 1, 2))

    def test_against_pair_counting(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 9))
            a = Ranking(tuple(rng.permutation(m)))
            b = Ranking(tuple(rng.permutation(m)))
            assert kendall_tau(a, b) == discordant_pairs(a, b)

    @given(permutations, st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_bounds(self, perm, rnd):
        m = len(perm)
        other = list(range(m))
        rnd.shuffle(other)
        a, b = Ranking(tuple(perm)), Ranking(tuple(other))
        d = kendall_tau(a, b)
        assert d == kendall_tau(b, a)
        assert 0 <= d <= m * (m - 1) // 2


class TestApplySwap:
    def test_adjacent(self):
        assert apply_swap(R(0, 1, 2), 0, 1) == R(1, 0, 2)

    def test_endpoints(self):
        assert apply_swap(R(0, 1, 2), 0, 2) == R(2, 1, 0)

    def test_involution(self):
        r = R(3, 1, 0, 2)
        assert apply_swap(apply_swap(r, 3, 2), 3, 2) == r

    def test_same_item_rejected(self):
        with pytest.raises(DomainError):
            apply_swap(R(0, 1, 2), 1, 1)

    def test_unknown_item(self):
        with pytest.raises(DomainError):
            apply_swap(R(0, 1, 2), 0, 5)

    def test_swap_moves_distance(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 8))
            r = Ranking(tuple(rng.permutation(m)))
            ref = Ranking(tuple(rng.permutation(m)))
            i, j = rng.choice(m, size=2, replace=False)
            swapped = apply_swap(r, int(i), int(j))
            assert kendall_tau(r, swapped) >= 1
            # a transposition flips permutation parity, so the distance to any
            # fixed reference must move
            assert kendall_tau(ref, swapped) != kendall_tau(ref, r)


class TestValueProfiles:
    def test_borda_examples(self):
        assert borda_values(5).values == (4.0, 3.0, 2.0, 1.0, 0.0)
        assert borda_values(1).values == (0.0,)
        assert borda_values(2).values == (1.0, 0.0)

    def test_borda_rejects_zero(self):
        with pytest.raises(DomainError):
            borda_values(0)

    def test_borda_strictly_decreasing(self):
        for m in range(2, 9):
            vals = borda_values(m).values
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            ValueProfile((1.0, 2.0))
        with pytest.raises(DomainError):
            ValueProfile((1.0, -0.5))
        with pytest.raises(DomainError):
            ValueProfile((math.nan, 0.0))
        ValueProfile((1.0, 1.0, 0.0))  # ties allowed

    def test_top_item_values(self):
        v = top_item_values(4)
        assert v.values == (1.0, 0.0, 0.0, 0.0)
        assert v.is_top_item_recovery()
        assert not borda_values(3).is_top_item_recovery()


class TestHumanType:
    def test_center_must_match_ground_truth(self):
        gt = R(0, 1, 2)
        with pytest.raises(DomainError):
            HumanType(gt, MallowsModel(R(1, 0, 2), 1.0), top_item_values(3), 1.0)

    def test_plackett_luce_human_takes_any_order_its_values_do_not_increase_along(self):
        tied = PlackettLuceModel((1.0, 0.0, 0.0), 1.0)  # its center breaks the tie: (0, 1, 2)
        for gt in (R(0, 1, 2), R(0, 2, 1)):
            assert HumanType(gt, tied, top_item_values(3), 1.0).ground_truth == gt
        increasing = PlackettLuceModel((0.0, 1.0, 2.0), 1.0)
        for gt, model in ((R(1, 0, 2), tied), (R(2, 1, 0), tied), (R(0, 1, 2), increasing)):
            with pytest.raises(DomainError, match="item values must not increase"):
                HumanType(gt, model, top_item_values(3), 1.0)

    def test_noise_model_must_cover_the_same_items(self):
        with pytest.raises(DimensionError):
            HumanType(Ranking.identity(3), ExplicitModel(((Ranking.identity(4), 1.0),)), borda_values(3), 1.0)

    def test_value_of(self):
        h = HumanType(R(2, 0, 1), MallowsModel(R(2, 0, 1), 1.0), borda_values(3), 1.0)
        assert h.value_of(2) == 2.0
        assert h.value_of(1) == 0.0

    def test_weight_bounds(self):
        gt = R(0, 1)
        with pytest.raises(DomainError):
            HumanType(gt, MallowsModel(gt, 1.0), borda_values(2), 0.0)
        with pytest.raises(DomainError):
            HumanType(gt, MallowsModel(gt, 1.0), borda_values(2), 1.5)


class TestPopulation:
    def _type(self, weight, m=3):
        gt = Ranking.identity(m)
        return HumanType(gt, MallowsModel(gt, 1.0), borda_values(m), weight)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Population((self._type(0.5), self._type(0.4)))

    def test_small_deviation_renormalized_with_warning(self):
        w = 0.5 + 2e-10
        with pytest.warns(UserWarning):
            pop = Population((self._type(w), self._type(0.5)))
        assert math.fsum(pop.weights()) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_m_rejected(self):
        with pytest.raises(DimensionError):
            Population((self._type(0.5, m=3), self._type(0.5, m=4)))

    def test_single(self):
        pop = Population.single(self._type(0.25))
        assert pop.n == 1 and pop.weights() == (1.0,)


class TestAlgorithmPolicy:
    def test_menu_size_bounds(self):
        with pytest.raises(DomainError):
            AlgorithmPolicy(R(0, 1, 2), 1.0, 0)
        with pytest.raises(DomainError):
            AlgorithmPolicy(R(0, 1, 2), 1.0, 4)

    def test_negative_accuracy(self):
        with pytest.raises(DomainError):
            AlgorithmPolicy(R(0, 1, 2), -0.1, 2)

    def test_nan_accuracy(self):
        with pytest.raises(DomainError):
            AlgorithmPolicy(R(0, 1, 2), math.nan, 2)

    def test_noiseless_menu(self):
        policy = AlgorithmPolicy(R(2, 0, 1), NOISELESS, 2)
        assert policy.is_noiseless
        assert policy.fixed_menu() == frozenset({2, 0})

    def test_infinite_accuracy_is_noiseless(self):
        # NOISELESS is the phi -> inf limit itself, not a separate marker
        policy = AlgorithmPolicy(R(2, 0, 1), math.inf, 2)
        assert policy.is_noiseless and policy == AlgorithmPolicy(R(2, 0, 1), NOISELESS, 2)
        assert policy.fixed_menu() == frozenset({2, 0})
        assert not AlgorithmPolicy(R(2, 0, 1), 1e308, 2).is_noiseless

    def test_noisy_has_no_fixed_menu(self):
        with pytest.raises(DomainError):
            AlgorithmPolicy(R(0, 1, 2), 1.0, 2).fixed_menu()


# a numeric string, a bool and None are not numbers: each constructor refuses them with a DomainError
NOT_NUMBERS = ["x", "1.5", True, None]


@pytest.mark.parametrize("phi", NOT_NUMBERS)
def test_mallows_accuracy_must_be_a_number(phi):
    with pytest.raises(DomainError, match="phi must be a nonnegative finite number"):
        MallowsModel(R(0, 1, 2), phi)


@pytest.mark.parametrize("accuracy", NOT_NUMBERS)
def test_policy_accuracy_must_be_a_number(accuracy):
    with pytest.raises(DomainError, match="accuracy must be a nonnegative finite number"):
        AlgorithmPolicy(R(0, 1, 2), accuracy, 2)


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_values_must_be_numbers(value):
    with pytest.raises(DomainError, match="values must be numbers"):
        ValueProfile((value, 0.0))


@pytest.mark.parametrize("weight", NOT_NUMBERS)
def test_type_weight_must_be_a_number(weight):
    r = R(0, 1, 2)
    with pytest.raises(DomainError, match="weight must be a number"):
        HumanType(r, MallowsModel(r, 1.0), borda_values(3), weight)


@pytest.mark.parametrize("values, beta", [((bad, 0.0), 1.0) for bad in NOT_NUMBERS] + [((1.0, 0.0), bad) for bad in NOT_NUMBERS])
def test_plackett_luce_values_and_scale_must_be_numbers(values, beta):
    # a bad beta (the good one is the float 1.0) meets the one noise-scale rule
    match = "must be numbers" if type(beta) is float else "noise scale beta must be a positive finite number"
    with pytest.raises(DomainError, match=match):
        PlackettLuceModel(values, beta)


@pytest.mark.parametrize("p", NOT_NUMBERS)
def test_explicit_probabilities_must_be_numbers(p):
    with pytest.raises(DomainError, match="probabilities must be numbers"):
        ExplicitModel(((R(0, 1), p),))
