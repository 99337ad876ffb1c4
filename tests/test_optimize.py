import io
import itertools
import math
import re

import numpy as np
import pytest

from conftest import make_ranking as R
from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    HumanType,
    MallowsModel,
    Population,
    Ranking,
    ValueProfile,
    borda_values,
    branch_and_bound_menu,
    build_mip,
    enumerate_best_menu,
    export_lp,
    menu_policy,
    model_menu_distribution,
    noisy_uplift_search,
    optimize_with_uplift,
    social_welfare,
    solve_mip,
    top_item_values,
    verify_uplift,
)
from shortlist.errors import CapacityError, DomainError
from shortlist.experiments import tension_population
from shortlist.models import ExplicitModel, PlackettLuceModel, _insertion_rows
from shortlist.optimize import BOUND_SLACK, _bound_inputs, _node_bound, _welfare, menu_utility_table

LN2 = math.log(2)


def mallows_type(gt, phi, values, weight):
    return HumanType(gt, MallowsModel(gt, phi), values, weight)


def random_population(rng, m, n):
    raw = rng.uniform(0.2, 1.0, size=n)
    weights = raw / raw.sum()
    types = []
    for i in range(n):
        gt = Ranking(tuple(rng.permutation(m)))
        vals = np.sort(rng.uniform(0.0, 1.0, size=m))[::-1]
        if rng.random() < 0.5:
            vals[int(rng.integers(1, m)):] = 0.0
        types.append(
            mallows_type(gt, float(rng.uniform(0.05, 3.0)), ValueProfile(tuple(vals)), float(weights[i]))
        )
    return Population(tuple(types))


def heterogeneous_population(rng, m, n, families=("mallows", "pl", "explicit")):
    """Random types of the given families; values random, tied or flat; phi may be 0."""
    raw = rng.uniform(0.2, 1.0, size=n)
    types = []
    for i in range(n):
        family = families[i % len(families)]
        shape = rng.integers(3)
        if shape == 0:
            vals = np.sort(rng.uniform(0.0, 3.0, size=m))[::-1]
        elif shape == 1:
            vals = np.maximum(2.0 - np.arange(m) // 2, 0.0)  # (2, 2, 1, 1, 0, ...)
        else:
            vals = np.ones(m)
        values = ValueProfile(tuple(float(v) for v in vals))
        gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
        if family == "pl":
            noise = PlackettLuceModel(tuple(values[gt.position(x)] for x in range(m)), float(rng.uniform(0.1, 2.0)))
            gt = noise.center
        elif family == "explicit":
            perms = {gt.order} | {tuple(int(x) for x in rng.permutation(m)) for _ in range(3)}
            probs = rng.uniform(0.1, 1.0, len(perms))
            probs /= probs.sum()
            noise = ExplicitModel(tuple((Ranking(r), float(p)) for r, p in zip(sorted(perms), probs)))
        else:
            noise = MallowsModel(gt, float(rng.choice([0.0, rng.uniform(0.0, 3.0)])))
        types.append(HumanType(gt, noise, values, float(raw[i] / raw.sum())))
    return Population(tuple(types))


def search_nodes(order, k, fixed=(), next_idx=0):
    """The bound's arguments at every node of the unpruned include/exclude tree over ``order``."""
    rest = order[next_idx:]
    slots = k - len(fixed)
    if slots == 0 or len(rest) == slots:
        yield fixed + rest[:slots], (), 0
        return
    yield fixed, rest, slots
    yield from search_nodes(order, k, fixed + (rest[0],), next_idx + 1)
    yield from search_nodes(order, k, fixed, next_idx + 1)


class TestEnumerateBestMenu:
    def test_m3_prefers_far_distractor(self):
        # with top-item values the easiest-to-dismiss companion wins the slot
        pop = Population((mallows_type(Ranking.identity(3), LN2, top_item_values(3), 1.0),))
        result = enumerate_best_menu(pop, 2)
        assert result.menu == (0, 2)
        assert result.welfare == pytest.approx(16 / 21, abs=1e-12)

    def test_near_noiseless_tie_breaks_lexicographically(self):
        pop = Population((mallows_type(Ranking.identity(4), 50.0, top_item_values(4), 1.0),))
        result = enumerate_best_menu(pop, 2)
        assert result.menu == (0, 1)

    def test_welfare_recomputes_via_policy(self, rng):
        pop = random_population(rng, 5, 3)
        result = enumerate_best_menu(pop, 2)
        policy = menu_policy(pop.m, result.menu)
        assert social_welfare(pop, policy) == pytest.approx(result.welfare, abs=1e-9)

    def test_capacity(self):
        pop = Population((mallows_type(Ranking.identity(40), 1.0, top_item_values(40), 1.0),))
        with pytest.raises(CapacityError):
            enumerate_best_menu(pop, 18)

    def test_near_ties_keep_solvers_in_agreement(self):
        # flat values tie every menu up to DP float drift; both solvers must
        # still pick the identical menu (they share the evaluation route)
        pop = Population(
            (mallows_type(Ranking.identity(4), 0.7, ValueProfile((1.0,) * 4), 1.0),)
        )
        enum = enumerate_best_menu(pop, 2)
        bnb = branch_and_bound_menu(pop, 2)
        assert enum.menu == bnb.menu
        assert enum.welfare == pytest.approx(1.0, abs=1e-12)


@pytest.fixture
def no_combinations(monkeypatch):
    """Fail any enumeration of menus while the test runs."""

    def refuse(*args):
        raise AssertionError("menus were enumerated")

    monkeypatch.setattr(itertools, "combinations", refuse)


def _gated_calls(m):
    pop = Population((mallows_type(Ranking.identity(m), 1.0, top_item_values(m), 1.0),))
    return {
        "model_menu_distribution": lambda k: model_menu_distribution(pop.types[0].noise, k),
        "menu_utility_table": lambda k: menu_utility_table(pop, k),
        "enumerate_best_menu": lambda k: enumerate_best_menu(pop, k),
        "optimize_with_uplift": lambda k: optimize_with_uplift(pop, k),
    }


class TestMenuEnumerationGate:
    """Every k-menu enumeration passes ``models.k_menus`` before building a menu."""

    @pytest.mark.parametrize("name", list(_gated_calls(4)))
    def test_menu_size_out_of_range(self, name, no_combinations):
        call = _gated_calls(4)[name]
        for k in (0, 5):
            with pytest.raises(DomainError):
                call(k)

    @pytest.mark.parametrize("name", list(_gated_calls(40)))
    def test_too_many_menus(self, name, no_combinations):
        with pytest.raises(CapacityError):
            _gated_calls(40)[name](18)


class TestBranchAndBound:
    def test_matches_enumeration_small_batch(self, rng):
        for _ in range(10):
            m = int(rng.integers(4, 10))
            k = int(rng.integers(2, min(4, m - 1) + 1))
            pop = random_population(rng, m, int(rng.integers(1, 5)))
            enum = enumerate_best_menu(pop, k)
            bnb = branch_and_bound_menu(pop, k)
            assert abs(enum.welfare - bnb.welfare) <= 1e-9
            assert enum.menu == bnb.menu

    def test_k_equals_m_single_leaf(self):
        pop = Population((mallows_type(Ranking.identity(4), 0.9, borda_values(4), 1.0),))
        result = branch_and_bound_menu(pop, 4)
        assert result.menu == (0, 1, 2, 3)
        assert result.evaluations == 1

    def test_two_type_swap_instance(self):
        m = 10
        order = list(range(m))
        order[0], order[3] = order[3], order[0]
        values = ValueProfile((4.0, 3.0, 2.0, 1.0) + (0.0,) * (m - 4))
        pop = Population(
            (
                mallows_type(Ranking.identity(m), 1.0, values, 0.5),
                mallows_type(Ranking(tuple(order)), 1.0, values, 0.5),
            )
        )
        enum = enumerate_best_menu(pop, 4)
        bnb = branch_and_bound_menu(pop, 4)
        assert bnb.menu == enum.menu
        assert bnb.welfare == pytest.approx(enum.welfare, abs=1e-9)
        assert bnb.nodes is not None and bnb.nodes > 0

    def test_prunes_at_least_sometimes(self, rng):
        pop = random_population(rng, 9, 2)
        bnb = branch_and_bound_menu(pop, 3)
        assert bnb.evaluations < math.comb(9, 3)

    def test_exact_on_random_heterogeneous_instances(self):
        rng = np.random.default_rng(7)
        cases = [(tension_population(0.0, phi_h), k) for phi_h in (0.0, 0.7) for k in (1, 3, 5)]
        for i in range(60):
            m = int(rng.integers(4, 12))
            families = ("mallows", "pl", "explicit") if i % 2 else ("mallows",)
            pop = heterogeneous_population(rng, m, int(rng.integers(1, 6)), families)
            cases.append((pop, int(rng.integers(1, min(5, m) + 1))))
        for pop, k in cases:
            enum = enumerate_best_menu(pop, k)
            bnb = branch_and_bound_menu(pop, k)
            assert bnb.menu == enum.menu
            assert bnb.welfare == enum.welfare
            assert bnb.per_type == enum.per_type

    def test_node_bound_is_admissible(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(1, m + 1))
            families = ("mallows", "pl", "explicit") if i % 3 == 0 else ("mallows",)
            pop = heterogeneous_population(rng, m, int(rng.integers(1, 4)), families)
            menus, table = menu_utility_table(pop, k)
            welfare = dict(zip(menus, _welfare(table, pop.weights())))
            values, caps, weights = _bound_inputs(pop)
            order = tuple(int(x) for x in rng.permutation(m))
            for fixed, rest, slots in search_nodes(order, k):
                best = max(welfare[tuple(sorted(fixed + extra))] for extra in itertools.combinations(rest, slots))
                assert _node_bound(values, caps, weights, fixed, rest, slots) >= best - BOUND_SLACK

    def test_prunes_decreasing_values_population(self):
        # the shape of the benchmark's m = 16, k = 4 decreasing-values instance
        rng = np.random.default_rng(3)
        m, k = 16, 4
        raw = rng.uniform(0.2, 1.0, 3)
        types = []
        for w in raw / raw.sum():
            gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
            values = ValueProfile(tuple(float(v) for v in np.sort(rng.uniform(0.0, 1.0, m))[::-1]))
            types.append(mallows_type(gt, float(rng.uniform(0.2, 1.5)), values, float(w)))
        pop = Population(tuple(types))
        bnb = branch_and_bound_menu(pop, k)
        assert bnb.evaluations < math.comb(m, k) / 4
        assert bnb.menu == enumerate_best_menu(pop, k).menu


class TestUpliftConstrainedOptimum:
    def test_majority_minority_tension(self):
        # a 99/1 split with opposed preferences: the unconstrained optimum
        # serves the majority only, the uplift constraint costs welfare
        m = 4
        pop = Population(
            (
                mallows_type(Ranking.identity(m), 0.5, borda_values(m), 0.99),
                mallows_type(R(3, 2, 1, 0), 0.5, borda_values(m), 0.01),
            )
        )
        unconstrained = enumerate_best_menu(pop, 2)
        constrained = optimize_with_uplift(pop, 2)
        assert constrained is not None
        assert constrained.welfare < unconstrained.welfare - 1e-9
        report = verify_uplift(pop, menu_policy(m, constrained.menu))
        assert report.uplift_all

    def test_single_aligned_type_constraint_free(self):
        pop = Population((mallows_type(Ranking.identity(4), 0.8, top_item_values(4), 1.0),))
        unconstrained = enumerate_best_menu(pop, 2)
        constrained = optimize_with_uplift(pop, 2)
        assert constrained is not None
        assert constrained.menu == unconstrained.menu
        assert constrained.welfare == pytest.approx(unconstrained.welfare, abs=1e-12)

    def test_full_menu_infeasible(self):
        pop = Population((mallows_type(Ranking.identity(3), 1.0, top_item_values(3), 1.0),))
        assert optimize_with_uplift(pop, 3) is None

    def test_never_beats_unconstrained(self, rng):
        for _ in range(10):
            pop = random_population(rng, 5, 3)
            k = int(rng.integers(2, 5))
            constrained = optimize_with_uplift(pop, k)
            if constrained is not None:
                assert constrained.welfare <= enumerate_best_menu(pop, k).welfare + 1e-12


class TestNoisyUpliftSearch:
    def test_noiseless_on_optimal_center_weakly_best_welfare(self):
        # noiselessness is optimal at the policy-class level: put the optimal
        # menu first in the center and no grid accuracy can beat presenting it
        # deterministically (a fixed sub-optimal center would not have this
        # property: noise can luck into easier menus)
        pop = Population((mallows_type(Ranking.identity(4), 0.9, top_item_values(4), 1.0),))
        best = enumerate_best_menu(pop, 2)
        center = menu_policy(4, best.menu).center
        grid = [0.25, 0.5, 1.0, 2.0, NOISELESS]
        _, _, reports = noisy_uplift_search(pop, center, grid, 2)
        noiseless_welfare = reports[-1][1].social_welfare
        assert noiseless_welfare == pytest.approx(best.welfare, abs=1e-12)
        assert noiseless_welfare >= max(rep.social_welfare for _, rep in reports) - 1e-12

    def test_empty_grid_rejected(self):
        pop = Population((mallows_type(Ranking.identity(3), 0.9, top_item_values(3), 1.0),))
        with pytest.raises(DomainError):
            noisy_uplift_search(pop, Ranking.identity(3), (), 2)

    def test_best_maximizes_min_gain(self):
        pop = Population((mallows_type(Ranking.identity(4), 0.9, top_item_values(4), 1.0),))
        best_phi, best_rep, reports = noisy_uplift_search(
            pop, Ranking.identity(4), (0.3, 1.1, NOISELESS), 2
        )
        assert best_rep.min_gain == max(rep.min_gain for _, rep in reports)


class TestThmNoiselessOptimal:
    def test_best_menu_beats_random_noisy_policies(self, rng):
        pop = random_population(rng, 5, 2)
        k = 2
        best = enumerate_best_menu(pop, k).welfare
        for _ in range(100):
            center = Ranking(tuple(rng.permutation(5)))
            phi = float(rng.uniform(0.0, 3.0))
            noisy = social_welfare(pop, AlgorithmPolicy(center, phi, k))
            assert noisy <= best + 1e-10


class TestMipBuild:
    def _small_pop(self):
        return Population(
            (
                mallows_type(Ranking.identity(3), 0.9, borda_values(3), 0.6),
                mallows_type(R(2, 0, 1), 1.4, borda_values(3), 0.4),
            )
        )

    def test_structure(self):
        mip = build_mip(self._small_pop(), 2)
        assert len(mip.binaries) == 3
        card = [c for c in mip.constraints if c[0] == {"x_0": 1.0, "x_1": 1.0, "x_2": 1.0}]
        assert card and card[0][1] == "<=" and card[0][2] == 2.0
        assert mip.n_types == 2

    def test_insertion_constants_match_tables(self):
        pop = self._small_pop()
        mip = build_mip(pop, 2)
        for h_idx, h in enumerate(pop):
            probs, _, _ = _insertion_rows(h.m, h.noise.phi)
            center = h.noise.center.order
            for t in range(1, 4):
                for s in range(1, t + 1):
                    z_name = f"type{h_idx}_z_{s}_{t}"
                    x_name = f"x_{center[t - 1]}"
                    rows = [
                        c
                        for c in mip.constraints
                        if set(c[0]) == {z_name, x_name} and c[1] == "<=" and c[2] == 0.0
                    ]
                    assert rows, (z_name, x_name)
                    assert -rows[0][0][x_name] == pytest.approx(float(probs[t - 1, s - 1]))

    def test_requires_mallows(self):
        gt = Ranking.identity(3)
        pl = HumanType(
            gt, PlackettLuceModel((2.0, 1.0, 0.0), 1.0), borda_values(3), 1.0
        )
        with pytest.raises(DomainError):
            build_mip(Population((pl,)), 2)

    def test_fixed_binaries_lp_equals_exact_welfare(self, rng):
        for _ in range(4):
            m = int(rng.integers(3, 7))
            k = int(rng.integers(1, m))
            pop = random_population(rng, m, int(rng.integers(1, 3)))
            mip = build_mip(pop, k)
            best = enumerate_best_menu(pop, k)
            lp_value, _ = solve_mip(mip, fix_menu=best.menu)
            assert lp_value == pytest.approx(best.welfare, abs=1e-8)

    def test_external_solve_matches_enumeration(self, rng):
        # the cardinality row is <= k, so compare against the best over all
        # menu sizes up to k
        m, k = 6, 3
        pop = random_population(rng, m, 2)
        mip = build_mip(pop, k)
        value, menu = solve_mip(mip)
        best = max(enumerate_best_menu(pop, kk).welfare for kk in range(1, k + 1))
        assert value == pytest.approx(best, abs=1e-6)
        assert 1 <= len(menu) <= k


class TestLpExport:
    def test_sections_and_roundtrip_names(self):
        pop = Population((mallows_type(Ranking.identity(3), 0.9, borda_values(3), 1.0),))
        mip = build_mip(pop, 2)
        buf = io.StringIO()
        export_lp(mip, buf)
        text = buf.getvalue()
        for section in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
            assert section in text
        assert re.search(r"\btype0_W_\d+_\d+_\d+\b", text)
        assert re.search(r"\bx_\d+\b", text)

    def test_objective_term_count(self):
        pop = Population(
            (
                mallows_type(Ranking.identity(3), 0.9, borda_values(3), 0.5),
                mallows_type(R(1, 0, 2), 1.1, top_item_values(3), 0.5),
            )
        )
        mip = build_mip(pop, 2)
        buf = io.StringIO()
        export_lp(mip, buf)
        text = buf.getvalue()
        objective = text.split("Subject To")[0].split("obj:")[1]
        terms = re.findall(r"type\d+_W_\d+_\d+_\d+", objective)
        # borda: two valued items x3 positions; top-item: one valued item
        assert len(terms) == (2 * 3) + (1 * 3)

    def test_file_destination(self, tmp_path):
        pop = Population((mallows_type(Ranking.identity(3), 0.9, borda_values(3), 1.0),))
        mip = build_mip(pop, 2)
        path = tmp_path / "instance.lp"
        export_lp(mip, path)
        content = path.read_text()
        assert content.startswith("\\") and content.rstrip().endswith("End")
