import itertools
import math

import pytest

from conftest import make_ranking as R, three_type_top_recovery
from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    HumanType,
    MallowsModel,
    Population,
    Ranking,
    ValueProfile,
    best_worst_topitem_rankings,
    borda_values,
    joint_utility,
    social_welfare,
    solo_utility,
    top_item_values,
    top_recovery_strategy,
    verify_uplift,
)
from shortlist.errors import DomainError
from shortlist.optimize import noisy_uplift_search
from shortlist.rankings import menu_policy

LN2 = math.log(2)


def mallows_type(gt: Ranking, phi: float, values, weight: float) -> HumanType:
    return HumanType(gt, MallowsModel(gt, phi), values, weight)


def aligned_population(m=3, phi=LN2):
    gt = Ranking.identity(m)
    return Population((mallows_type(gt, phi, top_item_values(m), 1.0),))


class TestSocialWelfare:
    def test_single_aligned_type(self):
        pop = aligned_population()
        policy = AlgorithmPolicy(Ranking.identity(3), LN2, 2)
        assert social_welfare(pop, policy) == pytest.approx(88 / 147, abs=1e-12)

    def test_duplicated_type_matches_single(self):
        gt = Ranking.identity(3)
        twin = Population(
            (
                mallows_type(gt, LN2, top_item_values(3), 0.5),
                mallows_type(gt, LN2, top_item_values(3), 0.5),
            )
        )
        policy = AlgorithmPolicy(gt, LN2, 2)
        assert social_welfare(twin, policy) == pytest.approx(88 / 147, abs=1e-12)

    def test_zero_values(self):
        gt = Ranking.identity(3)
        pop = Population((mallows_type(gt, 1.0, ValueProfile((0.0, 0.0, 0.0)), 1.0),))
        policy = AlgorithmPolicy(gt, NOISELESS, 2)
        assert social_welfare(pop, policy) == 0.0

    def test_linearity_in_weights(self, rng):
        m = 4
        gt1 = Ranking(tuple(rng.permutation(m)))
        gt2 = Ranking(tuple(rng.permutation(m)))
        policy = AlgorithmPolicy(Ranking.identity(m), 0.7, 2)
        u1 = joint_utility(mallows_type(gt1, 0.5, borda_values(m), 1.0), policy)
        u2 = joint_utility(mallows_type(gt2, 1.5, borda_values(m), 1.0), policy)
        for w in (0.2, 0.5, 0.9):
            pop = Population(
                (
                    mallows_type(gt1, 0.5, borda_values(m), w),
                    mallows_type(gt2, 1.5, borda_values(m), 1 - w),
                )
            )
            assert social_welfare(pop, policy) == pytest.approx(
                w * u1 + (1 - w) * u2, abs=1e-12
            )


class TestVerifyUplift:
    def test_aligned_strict_uplift(self):
        pop = aligned_population()
        report = verify_uplift(pop, AlgorithmPolicy(Ranking.identity(3), LN2, 2))
        assert report.uplift_all
        assert report.per_type[0].joint == pytest.approx(88 / 147, abs=1e-12)
        assert report.per_type[0].solo == pytest.approx(4 / 7, abs=1e-12)
        assert report.uplift_fraction == 1.0

    def test_full_menu_is_never_strict(self):
        pop = aligned_population()
        report = verify_uplift(pop, AlgorithmPolicy(Ranking.identity(3), LN2, 3))
        assert not report.uplift_all
        assert report.per_type[0].gain == pytest.approx(0.0, abs=1e-12)

    def test_three_type_noiseless_menus_all_fail(self):
        pop = three_type_top_recovery(5, 0.01)
        for menu in itertools.combinations(range(5), 2):
            report = verify_uplift(pop, menu_policy(5, menu))
            assert not report.uplift_all

    def test_report_welfare_consistency(self):
        pop = three_type_top_recovery(5, 0.5)
        policy = AlgorithmPolicy(Ranking.identity(5), 1.0, 2)
        report = verify_uplift(pop, policy)
        recomputed = math.fsum(
            w * o.joint for w, o in zip(report.weights, report.per_type)
        )
        assert report.social_welfare == pytest.approx(recomputed, abs=1e-12)
        assert report.social_welfare == pytest.approx(social_welfare(pop, policy), abs=1e-12)


class TestAlignedTopValuesUplift:
    def test_random_instances(self, rng):
        # positive values only on the top T ranks, algorithm center agreeing
        # there (free below), equal accuracies, 1 < k < m: every instance
        # must show strict uplift
        for _ in range(60):
            m = int(rng.integers(3, 7))
            T = int(rng.integers(1, min(4, m - 1) + 1))
            k = int(rng.integers(2, m))
            phi = float(rng.uniform(0.05, 3.0))
            gt = Ranking(tuple(rng.permutation(m)))
            tail = list(gt.order[T:])
            rng.shuffle(tail)
            center = Ranking(tuple(gt.order[:T]) + tuple(tail))
            vals = tuple(sorted(rng.uniform(0.2, 1.0, size=T), reverse=True))
            values = ValueProfile(vals + (0.0,) * (m - T))
            h = mallows_type(gt, phi, values, 1.0)
            a = AlgorithmPolicy(center, phi, k)
            assert joint_utility(h, a) > solo_utility(h) + 1e-12


class TestTopRecoveryStrategy:
    def test_three_tops_fit(self):
        pop = Population(
            (
                mallows_type(R(0, 1, 2, 3), 0.8, top_item_values(4), 1 / 3),
                mallows_type(R(1, 0, 2, 3), 0.8, top_item_values(4), 1 / 3),
                mallows_type(R(2, 3, 0, 1), 0.8, top_item_values(4), 1 / 3),
            )
        )
        policy = top_recovery_strategy(pop, 3)
        assert policy is not None
        assert policy.is_noiseless
        assert policy.fixed_menu() == frozenset({0, 1, 2})
        assert verify_uplift(pop, policy).uplift_all

    def test_tops_cover_everything_infeasible(self):
        pop = Population(
            (
                mallows_type(R(0, 1), 0.8, top_item_values(2), 0.5),
                mallows_type(R(1, 0), 0.8, top_item_values(2), 0.5),
            )
        )
        assert top_recovery_strategy(pop, 2) is None

    def test_single_type(self):
        pop = Population((mallows_type(R(2, 0, 1), 0.8, top_item_values(3), 1.0),))
        policy = top_recovery_strategy(pop, 1)
        assert policy is not None and policy.fixed_menu() == frozenset({2})

    def test_padding_uses_low_items(self):
        pop = Population((mallows_type(R(2, 0, 1), 0.8, top_item_values(3), 1.0),))
        policy = top_recovery_strategy(pop, 2)
        assert policy.fixed_menu() == frozenset({2, 0})

    def test_rejects_general_values(self):
        pop = Population((mallows_type(R(0, 1, 2), 0.8, borda_values(3), 1.0),))
        with pytest.raises(DomainError):
            top_recovery_strategy(pop, 2)


class TestBestWorstRankings:
    def test_m4(self):
        best, worst = best_worst_topitem_rankings(4)
        assert best == R(0, 3, 2, 1)
        assert worst == R(1, 2, 3, 0)

    def test_m2(self):
        best, worst = best_worst_topitem_rankings(2)
        assert best == R(0, 1) and worst == R(1, 0)

    def test_m_too_small(self):
        with pytest.raises(DomainError):
            best_worst_topitem_rankings(1)

    def test_exhaustive_m4_one_accuracy_pair(self):
        h = mallows_type(Ranking.identity(4), 1.0, top_item_values(4), 1.0)
        utilities = {
            perm: joint_utility(h, AlgorithmPolicy(Ranking(perm), 1.0, 2))
            for perm in itertools.permutations(range(4))
        }
        best, worst = best_worst_topitem_rankings(4)
        assert max(utilities, key=utilities.get) == best.order
        assert min(utilities, key=utilities.get) == worst.order


class TestNoiseHelpsUplift:
    def test_grid_finds_noisy_uplift_where_noiseless_fails(self):
        # any center puts one of the three favorites at position 3 or lower;
        # at or below the median a Mallows top-k inclusion probability is at
        # most the uniform k/m, too little against a near-uniform human, so
        # the construction needs m >= 6 (position 3 above the median); all
        # C(m,2) fixed menus still fail because one favorite is always left out
        m = 17
        pop = three_type_top_recovery(m, 0.01)
        for menu in itertools.combinations(range(m), 2):
            assert not verify_uplift(pop, menu_policy(m, menu)).uplift_all
        center = Ranking.identity(m)
        best_phi, best_report, reports = noisy_uplift_search(
            pop, center, (0.25, LN2, 2.0), 2
        )
        assert best_report.uplift_all
        assert any(rep.uplift_all for _, rep in reports)
