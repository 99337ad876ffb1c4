"""Property tests for the menu-law × utility-table product and the callers routed through it."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    ExplicitModel,
    HumanType,
    MallowsModel,
    PlackettLuceModel,
    Population,
    Ranking,
    ValueProfile,
    choice_table,
    derive_partial_order,
    joint_pick_dist,
    joint_utility,
    noisy_uplift_search,
    social_welfare,
    verify_uplift,
)
from shortlist.collab import center_menu_rows, center_utilities, menu_utility_table
from shortlist.experiments import beta_sweep
from shortlist.models import k_menus, policy_ranking_model

from conftest import mallows_support_oracle

policy_accuracies = st.one_of(st.just(0.0), st.just(NOISELESS), st.floats(0.05, 3.0))


def random_order(rng, m: int) -> tuple[int, ...]:
    return tuple(int(x) for x in rng.permutation(m))


def human(rng, m: int, family: str) -> HumanType:
    values = ValueProfile(tuple(sorted((float(v) for v in rng.uniform(0.0, 5.0, m)), reverse=True)))
    if family == "mallows":
        gt = Ranking(random_order(rng, m))
        return HumanType(gt, MallowsModel(gt, float(rng.uniform(0.0, 3.0))), values, 1.0)
    if family == "pl":
        model = PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, m)), float(rng.uniform(0.2, 2.0)))
        return HumanType(model.center, model, values, 1.0)
    orders = sorted({random_order(rng, m) for _ in range(4)})
    weights = rng.uniform(0.1, 1.0, len(orders))
    weights /= weights.sum()
    model = ExplicitModel(tuple((Ranking(p), float(w)) for p, w in zip(orders, weights)))
    return HumanType(Ranking(orders[0]), model, values, 1.0)


def three_family_population(rng, m: int) -> Population:
    types = [human(rng, m, family) for family in ("mallows", "pl", "explicit")]
    return Population(tuple(HumanType(h.ground_truth, h.noise, h.values, 1 / 3) for h in types))


def product(pop: Population, centers, accuracy, k: int) -> np.ndarray:
    """center_utilities of a Mallows(accuracy) or NOISELESS policy at each center."""
    model = policy_ranking_model(AlgorithmPolicy(Ranking.identity(pop.m), accuracy, k))
    rows = center_menu_rows([c.order for c in centers], k)
    return center_utilities(menu_utility_table(pop, k), model, rows)


class Oracle:
    """A human's joint utility by enumerating their rankings against a menu law."""

    def __init__(self, h: HumanType):
        self.h = h
        self.support = list(h.noise.support())
        self.picks: dict = {}  # menu -> expected value of the pick, by enumeration

    def utility(self, menu_law: dict) -> float:
        total = []
        for menu, q in menu_law.items():
            if menu not in self.picks:
                self.picks[menu] = math.fsum(
                    p * self.h.value_of(min(menu, key=r.position)) for r, p in self.support
                )
            total.append(q * self.picks[menu])
        return math.fsum(total)


def enumerated_menu_law(support, k: int) -> dict:
    law: dict = {}
    for r, p in support:
        menu = tuple(sorted(r.order[:k]))
        law[menu] = law.get(menu, 0.0) + p
    return law


def mallows_menu_law(center: Ranking, accuracy, k: int) -> dict:
    if accuracy == NOISELESS:
        return {tuple(sorted(center.order[:k])): 1.0}
    return enumerated_menu_law(mallows_support_oracle(center, accuracy), k)


class TestCenterUtilities:
    @given(data=st.data(), accuracy=policy_accuracies, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_entries_match_joint_utility_and_oracle(self, data, accuracy, seed):
        m = data.draw(st.integers(2, 7), label="m")
        k = data.draw(st.integers(1, m), label="k")
        rng = np.random.default_rng(seed)
        pop = three_family_population(rng, m)
        centers = [Ranking.identity(m)] + [Ranking(random_order(rng, m)) for _ in range(2)]
        got = product(pop, centers, accuracy, k)
        assert got.shape == (len(centers), pop.n)
        oracles = [Oracle(h) for h in pop]
        for c, center in enumerate(centers):
            law = mallows_menu_law(center, accuracy, k)
            for t, h in enumerate(pop):
                assert abs(got[c, t] - joint_utility(h, AlgorithmPolicy(center, accuracy, k))) <= 1e-12
                assert abs(got[c, t] - oracles[t].utility(law)) <= 1e-12

    def test_noiseless_entry_is_the_table_row(self, rng):
        pop = three_family_population(rng, 5)
        menus, table = menu_utility_table(pop, 2)
        center = Ranking((3, 1, 4, 0, 2))
        got = product(pop, [center], NOISELESS, 2)
        assert np.array_equal(got[0], table[menus.tolist().index([1, 3])])

    def test_empty_center_list(self, rng):
        pop = three_family_population(rng, 4)
        rows = center_menu_rows(np.empty((0, 4), dtype=np.intp), 2)
        model = policy_ranking_model(AlgorithmPolicy(Ranking.identity(4), NOISELESS, 2))
        assert center_utilities(menu_utility_table(pop, 2), model, rows).shape == (0, 3)


class TestRoutedCallers:
    def test_beta_sweep_rows_match_oracle(self):
        phi, gumbel_beta, k = 0.5, 0.4, 2
        for m in (3, 4, 5):
            grid = (0.0, 2.5)
            rows = beta_sweep(beta_grid=grid, m=m, k=k, phi=phi, gumbel_beta=gumbel_beta)
            assert len(rows) == 2 * len(grid) * (math.factorial(m) - 1)
            gt = Ranking.identity(m)
            aligned: dict = {}
            oracles: dict = {}
            for row in rows:
                beta, family = row["beta"], row["family"]
                vals = tuple(math.exp(-beta * j) for j in range(m))
                if (beta, family) not in oracles:
                    noise = MallowsModel(gt, phi) if family == "mallows" else PlackettLuceModel(vals, gumbel_beta)
                    oracles[beta, family] = Oracle(HumanType(gt, noise, ValueProfile(vals), 1.0))

                def utility(center: Ranking) -> float:
                    if family == "mallows":
                        law = mallows_menu_law(center, phi, k)
                    else:
                        alg = PlackettLuceModel(tuple(vals[center.position(x)] for x in range(m)), gumbel_beta)
                        law = enumerated_menu_law(alg.support(), k)
                    return oracles[beta, family].utility(law)

                if (beta, family) not in aligned:
                    aligned[beta, family] = utility(gt)
                center = Ranking(tuple(int(x) - 1 for x in row["center"].split()))
                want = utility(center) - aligned[beta, family]
                assert abs(row["utility_difference"] - want) <= 1e-12, (m, beta, family, row["center"])

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_uplift_search_reports_match_verify_uplift(self, data, seed):
        m = data.draw(st.integers(2, 7), label="m")
        k = data.draw(st.integers(1, m), label="k")
        rng = np.random.default_rng(seed)
        pop = three_family_population(rng, m)
        center = Ranking(random_order(rng, m))
        grid = [0.0, float(rng.uniform(0.05, 3.0)), NOISELESS, float(rng.uniform(0.05, 3.0))]
        best_phi, best_report, reports = noisy_uplift_search(pop, center, grid, k)
        assert [phi for phi, _ in reports] == grid
        for phi, report in reports:
            want = verify_uplift(pop, AlgorithmPolicy(center, phi, k))
            assert report.weights == want.weights
            assert abs(report.social_welfare - want.social_welfare) <= 1e-12
            for got_t, want_t in zip(report.per_type, want.per_type):
                assert got_t.solo == want_t.solo
                assert abs(got_t.joint - want_t.joint) <= 1e-12
        assert best_report.min_gain == max(report.min_gain for _, report in reports)
        assert best_phi == next(phi for phi, report in reports if report is best_report)

    @given(
        data=st.data(),
        accuracy=policy_accuracies,
        family=st.sampled_from(["mallows", "pl", "explicit"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_partial_order_utilities_match_joint_utility(self, data, accuracy, family, seed):
        m = data.draw(st.integers(2, 7), label="m")
        k = data.draw(st.integers(1, m), label="k")
        rng = np.random.default_rng(seed)
        h = human(rng, m, family)
        candidates = [Ranking(random_order(rng, m)) for _ in range(4)]
        order = derive_partial_order(h, candidates, accuracy, k)
        assert len(order.utilities) == len(candidates)
        for center, got in zip(candidates, order.utilities):
            assert abs(got - joint_utility(h, AlgorithmPolicy(center, accuracy, k))) <= 1e-12


class TestOneFormula:
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_curated_utilities_have_the_product_bits(self, data, seed):
        m = data.draw(st.integers(2, 7), label="m")
        k = data.draw(st.integers(1, m), label="k")
        rng = np.random.default_rng(seed)
        pop = three_family_population(rng, m)
        center = Ranking(random_order(rng, m))
        candidates = [center] + [Ranking(random_order(rng, m)) for _ in range(2)]
        grid = [0.0, float(rng.uniform(0.05, 3.0)), NOISELESS]
        _, _, reports = noisy_uplift_search(pop, center, grid, k)
        for phi, report in reports:
            a = AlgorithmPolicy(center, phi, k)
            assert [joint_utility(h, a) for h in pop] == [t.joint for t in report.per_type]
            assert social_welfare(pop, a) == report.social_welfare
            assert verify_uplift(pop, a) == report
            for h in pop:
                order = derive_partial_order(h, candidates, phi, k)
                assert list(order.utilities) == [joint_utility(h, AlgorithmPolicy(c, phi, k)) for c in candidates]

    @given(
        data=st.data(),
        accuracy=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_pick_laws_have_the_product_bits(self, data, accuracy, seed):
        m = data.draw(st.integers(3, 7), label="m")
        k = data.draw(st.integers(2, m - 1), label="k")
        rng = np.random.default_rng(seed)
        a = AlgorithmPolicy(Ranking(random_order(rng, m)), accuracy, k)
        menus = k_menus(m, k)
        rows = np.array(menus, dtype=np.intp)
        for family in ("mallows", "pl", "explicit"):
            h = human(rng, m, family)
            picks = np.zeros((len(menus), m))  # one-hot: P(x | menu) in column x
            np.put_along_axis(picks, rows, choice_table(h.noise, rows), axis=1)
            want = center_utilities((menus, picks), policy_ranking_model(a), np.arange(len(menus))[None])[0]
            got = joint_pick_dist(h, a)
            assert [got[x] for x in range(m)] == want.tolist(), family
