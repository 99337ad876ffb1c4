import itertools
import math

import pytest

from conftest import first_in_menu, make_ranking as R, mallows_support_oracle
from shortlist import (
    ExplicitModel,
    MallowsModel,
    PickDistribution,
    PlackettLuceModel,
    Ranking,
    choice_dist,
    choice_table,
)
from shortlist.choice import oracle_choice_dist
from shortlist.errors import DimensionError, DomainError

LN2 = math.log(2)


class TestPickDistribution:
    def test_requires_normalization(self):
        with pytest.raises(DomainError):
            PickDistribution({0: 0.5, 1: 0.4})

    @pytest.mark.parametrize("probs", [{0: math.nan}, {0: 0.5, 1: math.nan}])
    def test_a_total_that_is_not_a_number_is_refused(self, probs):
        with pytest.raises(DomainError):
            PickDistribution(probs)

    def test_default_zero(self):
        d = PickDistribution({0: 1.0})
        assert d[3] == 0.0
        assert {x for x, p in d.items() if p > 0} == {0}


class TestMallowsChoice:
    def test_gap_two_menu(self):
        model = MallowsModel(R(0, 1, 2), LN2)
        assert choice_dist(model, {0, 2})[0] == pytest.approx(16 / 21, abs=1e-12)

    def test_singleton(self):
        model = MallowsModel(R(0, 1, 2), LN2)
        assert choice_dist(model, {1})[1] == 1.0

    def test_full_menu_equals_first_item(self):
        model = MallowsModel(R(3, 1, 0, 2), 0.9)
        for x in range(4):
            assert choice_dist(model, range(4))[x] == pytest.approx(
                model.topk_set_prob({x}), abs=1e-12
            )

    def test_target_must_be_in_menu(self):
        # an item outside the menu is never picked; the CLI refuses it as --target
        dist = choice_dist(MallowsModel(R(0, 1, 2), LN2), {0, 1})
        assert dist[2] == 0.0 and {x for x, p in dist.items() if p > 0} == {0, 1}

    def test_empty_menu(self):
        model = MallowsModel(R(0, 1, 2), LN2)
        with pytest.raises(DomainError):
            choice_dist(model, ())

    def test_menu_outside_universe(self):
        model = MallowsModel(R(0, 1, 2), LN2)
        with pytest.raises(DimensionError):
            choice_dist(model, {0, 5})

    def test_distribution_sums_to_one(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 8))
            model = MallowsModel(Ranking(tuple(rng.permutation(m))), float(rng.uniform(0, 3)))
            k = int(rng.integers(1, m + 1))
            menu = tuple(int(x) for x in rng.choice(m, size=k, replace=False))
            dist = choice_dist(model, menu)
            assert math.fsum(dist.probs.values()) == pytest.approx(1.0, abs=1e-10)
            assert {x for x, p in dist.items() if p > 0} <= set(menu)

    def test_dp_matches_enumeration_all_menus(self, rng):
        for m in (2, 3, 4, 5, 6):
            phi = float(rng.uniform(0.0, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            support = mallows_support_oracle(center, phi)
            for k in range(1, m + 1):
                for menu in itertools.combinations(range(m), k):
                    dist = choice_dist(model, menu)
                    for x in menu:
                        expected = math.fsum(
                            p for r, p in support if first_in_menu(r, menu) == x
                        )
                        assert dist[x] == pytest.approx(expected, abs=1e-10)

    def test_dp_matches_enumeration_at_oracle_cap(self, rng):
        # one spot check at the enumeration cap (7! = 5040 rankings)
        center = Ranking(tuple(rng.permutation(7)))
        model = MallowsModel(center, 1.2)
        for _ in range(4):
            k = int(rng.integers(2, 8))
            menu = tuple(int(x) for x in rng.choice(7, size=k, replace=False))
            dp = choice_dist(model, menu)
            orc = oracle_choice_dist(model, menu)
            for x in menu:
                assert dp[x] == pytest.approx(orc[x], abs=1e-10)

    def test_large_m_pair_menus_match_pairwise_closed_form(self, rng):
        # beyond enumeration reach the two-item menus still have an
        # independent closed-form route; one batch of every pair shares each
        # first item's prefix, and a pair scored alone keeps the batch's bits
        m = 40
        pairs = list(itertools.combinations(range(m), 2))
        for phi in (0.0, 0.35, 30.0):
            model = MallowsModel(Ranking(tuple(rng.permutation(m))), phi)
            table = choice_table(model, pairs)
            for b, (i, j) in enumerate(pairs):
                assert table[b, 0] == pytest.approx(model.pairwise_prob(i, j), abs=1e-14)
                if b % 13 == 0:
                    dist = choice_dist(model, {i, j})
                    assert (dist[i], dist[j]) == tuple(table[b].tolist())

    def test_large_m_full_menu_matches_first_item_closed_form(self, rng):
        m = 25
        center = Ranking(tuple(rng.permutation(m)))
        model = MallowsModel(center, 0.6)
        dist = choice_dist(model, range(m))
        for x in range(m):
            assert dist[x] == pytest.approx(model.topk_set_prob({x}), abs=1e-10)

    def test_replacement_monotonicity(self, rng):
        # swapping a menu member for a center-worse outsider helps the others
        for _ in range(100):
            m = int(rng.integers(3, 7))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, float(rng.uniform(0.05, 3.0)))
            k = int(rng.integers(2, m))
            menu = set(int(x) for x in rng.choice(m, size=k, replace=False))
            outside = [x for x in range(m) if x not in menu]
            if not outside:
                continue
            x_out = int(rng.choice(outside))
            better = [x for x in menu if center.position(x) < center.position(x_out)]
            if not better:
                continue
            x_l = int(rng.choice(better))
            menu2 = (menu - {x_l}) | {x_out}
            for x in menu - {x_l}:
                assert choice_dist(model, menu)[x] <= choice_dist(model, menu2)[x] + 1e-12


class TestPlackettLuceChoice:
    def test_even_pair(self):
        model = PlackettLuceModel((0.7, 0.7), 1.0)
        assert choice_dist(model, {0, 1})[0] == pytest.approx(0.5)

    def test_three_item_softmax(self):
        model = PlackettLuceModel((1.0, 0.0, -1.0), 1.0)
        expected = math.e / (math.e + 1 + math.exp(-1))
        assert choice_dist(model, {0, 1, 2})[0] == pytest.approx(expected, abs=1e-12)

    def test_low_noise_picks_max(self):
        model = PlackettLuceModel((3.0, 1.0, 0.5), 1e-3)
        assert choice_dist(model, {0, 1, 2})[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration(self, rng):
        for m in (3, 4, 5):
            values = tuple(float(v) for v in rng.normal(size=m))
            model = PlackettLuceModel(values, float(rng.uniform(0.3, 2.0)))
            support = list(model.support())
            for k in (2, m):
                for menu in itertools.combinations(range(m), k):
                    dist = choice_dist(model, menu)
                    for x in menu:
                        expected = math.fsum(
                            p for r, p in support if first_in_menu(r, menu) == x
                        )
                        assert dist[x] == pytest.approx(expected, abs=1e-10)

    def test_target_validation(self):
        # an item outside the menu is never picked; the CLI refuses it as --target
        dist = choice_dist(PlackettLuceModel((1.0, 0.0), 1.0), {0})
        assert dist[1] == 0.0 and {x for x, p in dist.items() if p > 0} == {0}


class TestExplicitChoice:
    def test_fig_style_two_rankings(self):
        model = ExplicitModel(((R(0, 1, 2), 0.9), (R(1, 0, 2), 0.1)))
        dist = choice_dist(model, {0, 2})
        assert dist[0] == 1.0 and dist[2] == 0.0
        assert choice_dist(model, {0, 1})[0] == pytest.approx(0.9)

    def test_support_restriction(self):
        model = ExplicitModel(((R(2, 1, 0), 1.0),))
        dist = choice_dist(model, {0, 1})
        assert dist[1] == 1.0
