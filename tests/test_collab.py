import math
import re

import numpy as np
import pytest

from conftest import first_in_menu, make_ranking as R
from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    ExplicitModel,
    HumanType,
    MallowsModel,
    PickDistribution,
    PlackettLuceModel,
    Population,
    Ranking,
    choice_dist,
    joint_pick_dist,
    joint_utility,
    mc_joint_pick_dist,
    solo_utility,
    top_item_values,
    verify_uplift,
)
from shortlist import collab
from shortlist.errors import CapacityError, DimensionError, DomainError
from shortlist.models import k_menus, model_menu_distribution, policy_ranking_model
from shortlist.rankings import borda_values

LN2 = math.log(2)


def aligned_human(m=3, phi=LN2, values=None):
    gt = Ranking.identity(m)
    return HumanType(gt, MallowsModel(gt, phi), values or top_item_values(m), 1.0)


def fig1_human():
    gt = R(0, 1, 2)
    noise = ExplicitModel(((R(0, 1, 2), 0.9), (R(1, 0, 2), 0.1)))
    return HumanType(gt, noise, top_item_values(3), 1.0)


def double_enumeration_joint(h, policy):
    """Oracle: enumerate algorithm and human rankings jointly."""
    alg_model = MallowsModel(policy.center, policy.accuracy)
    probs = {}
    for ra, pa in alg_model.support():
        menu = ra.top(policy.menu_size)
        for rh, ph in h.noise.support():
            pick = first_in_menu(rh, menu)
            probs[pick] = probs.get(pick, 0.0) + pa * ph
    return probs


class TestSoloPick:
    def test_mallows_first_item_probs(self):
        h = aligned_human()
        dist = choice_dist(h.noise, range(h.m))
        assert tuple(dist[x] for x in (0, 1, 2)) == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-12)

    def test_explicit_human(self):
        h = fig1_human()
        assert choice_dist(h.noise, range(h.m))[0] == pytest.approx(0.9)

    def test_near_noiseless_point_mass(self):
        h = aligned_human(phi=60.0)
        assert choice_dist(h.noise, range(h.m))[0] == pytest.approx(1.0, abs=1e-12)


class TestJointPick:
    def test_aligned_m3_value(self):
        h = aligned_human()
        a = AlgorithmPolicy(Ranking.identity(3), LN2, 2)
        dist = joint_pick_dist(h, a)
        assert dist[0] == pytest.approx(88 / 147, abs=1e-12)

    def test_noiseless_fig1_menu(self):
        a = AlgorithmPolicy(R(0, 2, 1), NOISELESS, 2)  # menu {x1, x3}
        dist = joint_pick_dist(fig1_human(), a)
        assert dist[0] == 1.0

    def test_numpy_items_give_int_keys_and_the_same_probabilities(self):
        h = aligned_human(m=4, phi=0.8, values=borda_values(4))
        listed = choice_dist(h.noise, [0, 1, 3])
        for items in (np.array([0, 1, 3]), (np.int64(0), np.int32(1), 3)):
            dist = choice_dist(h.noise, items)
            assert all(type(x) is int for x in dist.probs)
            assert list(dist.probs.items()) == list(listed.probs.items())
        for a in (AlgorithmPolicy(R(2, 0, 3, 1), 1.3, 2), AlgorithmPolicy(R(2, 0, 3, 1), NOISELESS, 2)):
            assert all(type(x) is int for x in joint_pick_dist(h, a).probs)

    def test_full_menu_equals_solo(self):
        h = aligned_human(m=4, phi=0.8, values=borda_values(4))
        a = AlgorithmPolicy(R(2, 0, 3, 1), 1.3, 4)
        joint = joint_pick_dist(h, a)
        solo = choice_dist(h.noise, range(h.m))
        for x in range(4):
            assert joint[x] == pytest.approx(solo[x], abs=1e-12)

    def test_noiseless_k1_point_mass(self):
        h = aligned_human()
        a = AlgorithmPolicy(R(1, 0, 2), NOISELESS, 1)
        assert joint_pick_dist(h, a)[1] == 1.0

    def test_against_double_enumeration(self, rng):
        # every k exhaustively at small m, then random spot checks at m=5
        cases = [(m, k) for m in (2, 3, 4) for k in range(1, m + 1)]
        cases += [(5, int(rng.integers(1, 6))) for _ in range(4)]
        for m, k in cases:
            gt = Ranking(tuple(rng.permutation(m)))
            h = HumanType(gt, MallowsModel(gt, float(rng.uniform(0, 3))), borda_values(m), 1.0)
            a = AlgorithmPolicy(
                Ranking(tuple(rng.permutation(m))), float(rng.uniform(0, 3)), k
            )
            exact = joint_pick_dist(h, a)
            oracle = double_enumeration_joint(h, a)
            for x in range(m):
                assert exact[x] == pytest.approx(oracle.get(x, 0.0), abs=1e-10)

    def test_sums_to_one_and_support(self, rng):
        h = aligned_human(m=5, phi=0.4, values=borda_values(5))
        a = AlgorithmPolicy(R(4, 2, 0, 1, 3), 0.9, 2)
        dist = joint_pick_dist(h, a)
        assert math.fsum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)
        menus = model_menu_distribution(policy_ranking_model(a), a.menu_size)
        reachable = frozenset().union(*menus)
        assert {x for x, p in dist.items() if p > 0} <= reachable

    def test_capacity_guard(self):
        m = 40
        gt = Ranking.identity(m)
        h = HumanType(gt, MallowsModel(gt, 1.0), top_item_values(m), 1.0)
        a = AlgorithmPolicy(gt, 1.0, 20)
        with pytest.raises(CapacityError):
            joint_pick_dist(h, a)

    def test_noiseless_policy_above_the_cap_picks_from_its_fixed_menu(self):
        m, k = 60, 5  # C(60, 5) menus exceed MENU_ENUMERATION_CAP
        gt = Ranking.identity(m)
        h = HumanType(gt, MallowsModel(gt, 0.7), borda_values(m), 1.0)
        center = Ranking(tuple(reversed(range(m))))
        fixed = AlgorithmPolicy(center, NOISELESS, k)
        assert joint_pick_dist(h, fixed) == choice_dist(h.noise, fixed.fixed_menu())
        with pytest.raises(CapacityError, match=re.escape("C(60,5) = 5461512 menus exceeds")):
            joint_pick_dist(h, AlgorithmPolicy(center, 1.0, k))

    @pytest.mark.parametrize("menu", [frozenset({0.5, 1.7}), frozenset({0.0, 1.0}), frozenset({"a", "b"}), frozenset({True, 2})])
    def test_menu_of_non_integer_items_is_refused(self, menu):
        # as choice_dist and choice_table refuse it, not truncated to a menu of integers
        h = aligned_human(m=4)
        with pytest.raises(DomainError):
            choice_dist(h.noise, menu)
        with pytest.raises(DomainError):
            collab.joint_pick_from_menus(h, {menu: 1.0})
        with pytest.raises(DomainError):
            collab.joint_pick_from_menus(h, {frozenset({0, 1}): 0.5, menu: 0.5})

    def test_equal_laws_in_any_order_give_equal_pick_laws(self, rng):
        for _ in range(10):
            m = int(rng.integers(5, 9))
            gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
            h = HumanType(gt, MallowsModel(gt, float(rng.uniform(0, 3))), borda_values(m), 1.0)
            alg = MallowsModel(Ranking(tuple(int(x) for x in rng.permutation(m))), float(rng.uniform(0, 3)))
            k = int(rng.integers(2, m - 1))
            mixed = {s: p / 2 for size in (k, k + 1) for s, p in model_menu_distribution(alg, size).items()}
            for law in (model_menu_distribution(alg, k), mixed):
                menus = list(law)
                rng.shuffle(menus)
                shuffled = {menu: law[menu] for menu in menus}
                assert shuffled == law
                assert collab.joint_pick_from_menus(h, shuffled) == collab.joint_pick_from_menus(h, law)


    def test_joint_pick_dist_has_the_bits_of_the_dict_law(self, rng):
        for case in range(60):
            m = int(rng.integers(2, 10))
            k = int(rng.integers(1, m + 1))
            gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
            if case % 3:
                noise = MallowsModel(gt, float(rng.uniform(0, 3)))
            else:
                scores = sorted(rng.normal(0.0, 1.0, m).tolist(), reverse=True)  # decreasing along gt
                noise = PlackettLuceModel(tuple(scores[p] for p in gt.positions), float(rng.uniform(0.1, 2)))
            h = HumanType(gt, noise, borda_values(m), 1.0)
            phi = (0.0, float(rng.uniform(0, 4)), 700.0, 1e-9)[case % 4]
            a = AlgorithmPolicy(Ranking(tuple(int(x) for x in rng.permutation(m))), phi, k)
            want = collab.joint_pick_from_menus(h, model_menu_distribution(policy_ranking_model(a), k))
            got = joint_pick_dist(h, a)
            assert list(got.probs) == list(want.probs)
            assert [p.hex() for p in got.probs.values()] == [p.hex() for p in want.probs.values()]

    def test_menus_of_zero_probability_are_dropped(self):
        h = aligned_human(m=4)
        law = {frozenset({0, 1}): 0.5, frozenset({1, 2}): 0.5, frozenset({2, 3}): 0.0, frozenset({3}): 0.0}
        dist = collab.joint_pick_from_menus(h, law)
        assert list(dist.probs) == [0, 1, 2]
        with pytest.raises(DomainError, match="nonempty support"):
            collab.joint_pick_from_menus(h, {frozenset({2, 3}): 0.0})


class TestJointUtility:
    def test_noiseless_policy_above_the_cap_scores_its_fixed_menu(self):
        m, k = 60, 5  # C(60, 5) menus exceed MENU_ENUMERATION_CAP
        gt = Ranking.identity(m)
        h = HumanType(gt, MallowsModel(gt, 0.7), borda_values(m), 1.0)
        center = Ranking(tuple(reversed(range(m))))
        fixed = AlgorithmPolicy(center, NOISELESS, k)
        want = collab.menu_utility(h, fixed.fixed_menu())
        assert joint_utility(h, fixed) == want
        assert verify_uplift(Population.single(h), fixed).per_type[0].joint == want
        noisy = AlgorithmPolicy(center, 1.0, k)
        for score in (lambda: joint_utility(h, noisy), lambda: verify_uplift(Population.single(h), noisy)):
            with pytest.raises(CapacityError, match=re.escape("C(60,5) = 5461512 menus exceeds")):
                score()

    @pytest.mark.parametrize("accuracy", [0.0, 1.0, NOISELESS])
    def test_universe_mismatch_rejected(self, accuracy):
        with pytest.raises(DimensionError, match="different item universes: 3 and 4 items"):
            joint_utility(aligned_human(m=3), AlgorithmPolicy(Ranking.identity(4), accuracy, 2))


class TestMonteCarlo:
    def test_matches_exact_within_3_sigma(self, rng):
        h = aligned_human()
        a = AlgorithmPolicy(Ranking.identity(3), LN2, 2)
        n = 100_000
        est = mc_joint_pick_dist(h, a, n, rng)
        p = 88 / 147
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(est[0] - p) < 3 * sigma

    def test_seed_determinism(self):
        h = aligned_human()
        a = AlgorithmPolicy(Ranking.identity(3), 0.5, 2)
        e1 = mc_joint_pick_dist(h, a, 500, np.random.default_rng(3)).probs
        e2 = mc_joint_pick_dist(h, a, 500, np.random.default_rng(3)).probs
        assert e1 == e2

    def test_deterministic_when_both_sides_sharp(self, rng):
        h = aligned_human(phi=80.0)
        a = AlgorithmPolicy(Ranking.identity(3), NOISELESS, 2)
        est = mc_joint_pick_dist(h, a, 200, rng)
        assert est[0] == 1.0

    def test_universe_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            mc_joint_pick_dist(aligned_human(m=3), AlgorithmPolicy(Ranking.identity(4), 0.5, 2), 10, rng)

    @pytest.mark.parametrize("rng", [None, 0, np.random.RandomState(0)], ids=["none", "int", "legacy"])
    def test_an_rng_that_is_not_a_generator_is_refused_before_sampling(self, monkeypatch, rng):
        monkeypatch.setattr(MallowsModel, "sample_many", lambda *args: pytest.fail("sampling started"))
        with pytest.raises(DomainError, match=f"rng must be a numpy.random.Generator, got {type(rng).__name__}$"):
            mc_joint_pick_dist(aligned_human(), AlgorithmPolicy(Ranking.identity(3), 0.5, 2), 10, rng)


class TestExpectedUtility:
    def test_solo_top_item(self):
        h = aligned_human()
        assert solo_utility(h) == pytest.approx(4 / 7, abs=1e-12)

    def test_joint_beats_solo_on_aligned_instance(self):
        h = aligned_human()
        a = AlgorithmPolicy(Ranking.identity(3), LN2, 2)
        assert joint_utility(h, a) == pytest.approx(88 / 147, abs=1e-12)
        assert joint_utility(h, a) > solo_utility(h)

    def test_zero_values(self):
        m = 3
        gt = Ranking.identity(m)
        h = HumanType(gt, MallowsModel(gt, 1.0), top_item_values(m), 1.0)
        zeroed = HumanType(
            gt, MallowsModel(gt, 1.0),
            # all-zero profile is valid: non-increasing and nonnegative
            type(h.values)((0.0, 0.0, 0.0)),
            1.0,
        )
        assert solo_utility(zeroed) == 0.0

    @pytest.mark.parametrize("item", [3, -1, 1.5, "0"])
    def test_a_callers_distribution_over_an_unknown_item_is_refused(self, item):
        h = aligned_human()
        with pytest.raises(DomainError, match="unknown item"):
            collab.expected_utility(PickDistribution({0: 0.5, item: 0.5}), h)

    def test_menu_utility_has_the_bits_of_expected_utility(self):
        rng = np.random.default_rng(3)
        for phi in (0.0, 0.4, 2.5):
            gt = Ranking(tuple(int(x) for x in rng.permutation(7)))
            values = type(borda_values(7))(tuple(sorted(rng.uniform(0.0, 3.0, 7).tolist(), reverse=True)))
            h = HumanType(gt, MallowsModel(gt, phi), values, 1.0)
            for menu in ((0, 3), (6, 1, 2), (5, 4, 3, 2), tuple(range(7))):
                want = collab.expected_utility(choice_dist(h.noise, menu), h)
                assert collab.menu_utility(h, menu).hex() == want.hex()


class TestCenterUtilities:
    """A curator model or rows built for another table are refused before the law is built."""

    @staticmethod
    def table():
        h = HumanType(Ranking.identity(4), MallowsModel(Ranking.identity(4), 1.0), borda_values(4), 1.0)
        return collab.menu_utility_table(Population.single(h), 2)

    @staticmethod
    def refuse_the_law(monkeypatch):
        monkeypatch.setattr(MallowsModel, "topk_law", lambda *args: pytest.fail("the law was built"))

    @pytest.mark.parametrize("m", [3, 5])
    def test_model_over_another_item_universe(self, monkeypatch, m):
        self.refuse_the_law(monkeypatch)
        with pytest.raises(DimensionError, match=f"model over {m} items for a menu table over 4 items"):
            collab.center_utilities(self.table(), MallowsModel(Ranking.identity(m), 1.0), np.arange(6)[None])

    @pytest.mark.parametrize("width", [5, 7])
    def test_rows_not_one_per_menu(self, monkeypatch, width):
        self.refuse_the_law(monkeypatch)
        with pytest.raises(DimensionError, match=rf"rows {width} menus wide for a table of C\(4, 2\) = 6"):
            collab.center_utilities(self.table(), MallowsModel(Ranking.identity(4), 1.0), np.arange(width)[None])

    @pytest.mark.parametrize("rows", [np.arange(6), np.arange(6)[None, None]], ids=["1-d", "3-d"])
    def test_rows_not_2d(self, monkeypatch, rows):
        self.refuse_the_law(monkeypatch)
        with pytest.raises(DimensionError, match="rows must be a 2-d array of table rows"):
            collab.center_utilities(self.table(), MallowsModel(Ranking.identity(4), 1.0), rows)

    @pytest.mark.parametrize(
        "rows", [np.arange(6.0)[None], np.ones((1, 6), dtype=bool), [[0, 1, 2, True, 4, 5]]], ids=["float", "bool", "bool-in-a-list"]
    )
    def test_non_integer_rows(self, monkeypatch, rows):
        self.refuse_the_law(monkeypatch)
        with pytest.raises(DomainError, match="rows must be integer table rows"):
            collab.center_utilities(self.table(), MallowsModel(Ranking.identity(4), 1.0), rows)

    @pytest.mark.parametrize("bad", [-1, 6, 10])
    def test_rows_outside_the_table(self, monkeypatch, bad):
        self.refuse_the_law(monkeypatch)
        rows = np.arange(6)[None].repeat(2, axis=0)
        rows[1, 3] = bad
        with pytest.raises(DimensionError, match=r"rows outside the table's 0\.\.5"):
            collab.center_utilities(self.table(), MallowsModel(Ranking.identity(4), 1.0), rows)

    def test_the_table_holds_the_k_menus_array_and_a_listed_table_scores_alike(self):
        menus, utilities = self.table()
        assert menus is k_menus(4, 2)
        model = MallowsModel(R(2, 0, 3, 1), 0.7)
        rows = collab.center_menu_rows([[0, 1, 2, 3], [3, 1, 0, 2]], 2)
        listed = (list(map(tuple, menus.tolist())), utilities)
        got = collab.center_utilities(listed, model, rows)
        assert got.tobytes() == collab.center_utilities((menus, utilities), model, rows).tobytes()

    def test_the_table_rule_takes_the_shared_menus_a_writable_copy_or_a_list_and_refuses_a_permutation(self):
        menus, utilities = self.table()
        assert collab.check_menu_table((menus, utilities))[0] is menus
        copy = menus.copy()
        assert copy.flags.writeable
        for given in (copy, menus.tolist()):
            got, same = collab.check_menu_table((given, utilities))
            assert got.tolist() == menus.tolist() and same is utilities
        with pytest.raises(DomainError, match=re.escape("table menus must be every 2-menu of 4 items in k_menus order")):
            collab.check_menu_table((menus[[1, 0, 2, 3, 4, 5]], utilities))  # the last menu kept, so m reads 4

    @pytest.mark.parametrize("block", [collab.PRODUCT_BLOCK, 40], ids=["one-pass", "40-term-blocks"])
    def test_a_law_per_column_has_the_bits_of_center_utilities_per_column(self, monkeypatch, rng, block):
        monkeypatch.setattr(collab, "PRODUCT_BLOCK", block)
        # each explicit curator's law is zero on most menus, each on other menus
        curators = [
            MallowsModel(Ranking.identity(5), 0.8),
            PlackettLuceModel(tuple(rng.normal(0.0, 1.0, 5).tolist()), 0.6),
            ExplicitModel(((Ranking.identity(5), 0.25), (R(4, 3, 2, 1, 0), 0.75))),
            ExplicitModel(((R(4, 3, 2, 1, 0), 1.0),)),
        ]
        types = [HumanType(Ranking.identity(5), MallowsModel(Ranking.identity(5), phi), borda_values(5), 0.25) for phi in (0.3, 1.0, 2.0, 5.0)]
        menus, table = collab.menu_utility_table(Population(tuple(types)), 2)
        law = np.stack([model.topk_law(menus) for model in curators], axis=1)
        # signed utilities, and inf where the last law is zero: a term of a zero-probability menu would make a NaN
        wild = np.where(rng.random(table.shape) < 0.3, -0.0, -table)
        wild[law[:, 3] == 0] = np.inf
        centers = np.vstack([np.arange(5), rng.permuted(np.tile(np.arange(5), (6, 1)), axis=1)])
        rows = collab.center_menu_rows(centers, 2)
        for utilities in (table, wild):
            got = collab._law_products(law, utilities, rows)
            for g, model in enumerate(curators):
                want = collab.center_utilities((menus, utilities[:, [g]]), model, rows)
                assert got[:, [g]].tobytes() == want.tobytes()
                assert collab._law_products(law[:, [g]], utilities[:, [g]], rows).tobytes() == want.tobytes()
        assert np.isfinite(got[0, 3])

    def test_matching_model_and_rows_score_the_joint_utility(self):
        h = HumanType(Ranking.identity(4), MallowsModel(Ranking.identity(4), 1.0), borda_values(4), 1.0)
        a = AlgorithmPolicy(R(1, 0, 2, 3), 1.0, 2)
        got = collab.center_utilities(self.table(), policy_ranking_model(a), np.arange(6)[None])
        assert got.shape == (1, 1) and got[0, 0] == joint_utility(h, a)


class TestSoloUtilities:
    def test_one_solo_utility_per_interchangeable_group(self, monkeypatch):
        values = borda_values(4)
        a, b, c = R(0, 1, 2, 3), R(2, 0, 3, 1), R(3, 1, 0, 2)
        pop = Population((
            HumanType(a, MallowsModel(a, 0.7), values, 0.2),
            HumanType(b, MallowsModel(b, 0.7), values, 0.2),  # a relabelling of type 0
            HumanType(c, MallowsModel(c, 1.3), values, 0.2),
            HumanType(a, PlackettLuceModel((4.0, 3.0, 2.0, 1.0), 0.8), values, 0.2),
            HumanType(b, ExplicitModel(((b, 0.6), (c, 0.4))), values, 0.2),
        ))
        assert list(collab._relabelling_groups(pop).values()) == [[0, 1], [2], [3], [4]]
        want = [solo_utility(h).hex() for h in pop]
        calls = []
        monkeypatch.setattr(collab, "solo_utility", lambda h: calls.append(h) or solo_utility(h))
        assert [u.hex() for u in collab.solo_utilities(pop).tolist()] == want
        assert calls == [pop.types[i] for i in (0, 2, 3, 4)]


class TestStochasticDominance:
    def test_aligned_prefix_dominance(self, rng):
        # joint cumulative mass on the human's top-i items dominates solo for
        # aligned centers, equal accuracies, and positive top-T values
        for _ in range(30):
            m = int(rng.integers(3, 7))
            T = int(rng.integers(1, m))
            k = int(rng.integers(2, m + 1))
            phi = float(rng.uniform(0.05, 3.0))
            gt = Ranking(tuple(rng.permutation(m)))
            vals = tuple(sorted(rng.uniform(0.1, 1.0, size=T), reverse=True)) + (0.0,) * (m - T)
            h = HumanType(gt, MallowsModel(gt, phi), type(borda_values(m))(vals), 1.0)
            a = AlgorithmPolicy(gt, phi, k)
            joint = joint_pick_dist(h, a)
            solo = choice_dist(h.noise, range(h.m))
            cum_joint = cum_solo = 0.0
            for i in range(T):
                item = gt.order[i]
                cum_joint += joint[item]
                cum_solo += solo[item]
                assert cum_joint >= cum_solo - 1e-12
