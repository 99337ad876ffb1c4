import io
import itertools
import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

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
    top_recovery_strategy,
    verify_uplift,
)
from shortlist.errors import CapacityError, DimensionError, DomainError
from shortlist.experiments import _bench_two_type_population, tension_population
from shortlist.models import ExplicitModel, PlackettLuceModel, _insertion_rows, k_menus, pairwise_matrix
from shortlist.optimize import BOUND_SLACK, _bound_inputs, _node_bound, _welfare, menu_utility, menu_utility_table

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


BENCH_VALUES = (4.0, 3.0, 2.0, 1.0)


def optimize_population(rng, m, n, family):
    """The benchmark's seeded ``optimize`` population (``perfbench/workloads.py::_optimize_population``).

    ``decreasing``: random centers, accuracies and sorted uniform values;
    ``bench``: centers that permute the first three items, values (4, 3, 2, 1, 0, ...).
    """
    raw = rng.uniform(0.2, 1.0, n)
    weights = [float(w) for w in raw / raw.sum()]
    types = []
    if family == "decreasing":
        for w in weights:
            gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
            phi = float(rng.uniform(0.2, 1.5))
            values = ValueProfile(tuple(float(v) for v in np.sort(rng.uniform(0.0, 1.0, m))[::-1]))
            types.append(mallows_type(gt, phi, values, w))
    else:
        values = ValueProfile(BENCH_VALUES + (0.0,) * (m - len(BENCH_VALUES)))
        heads = list(itertools.permutations(range(3)))
        for w, h in zip(weights, rng.choice(len(heads), size=n, replace=False)):
            gt = Ranking(heads[h] + tuple(range(3, m)))
            types.append(mallows_type(gt, float(rng.uniform(0.2, 1.5)), values, w))
    return Population(tuple(types))


# ((m, k, types, family, rng seed), menu, welfare.hex(), per-type hex, nodes, evaluations): the six
# benchmark cycle sizes in both value families, and m = 60, k = 5 past the enumeration cap
SEARCH_PINS = [
    ((12, 4, 6, 'decreasing', 0), (0, 2, 3, 6), '0x1.dd4bcb4db89c5p-1', ('0x1.dbace65a883b8p-1', '0x1.de3769071df1fp-1', '0x1.d557e0a9d422bp-1', '0x1.d6b4c1e14827bp-1', '0x1.db3611ccaab08p-1', '0x1.e38731527da4dp-1'), 47, 6),
    ((12, 4, 6, 'bench', 0), (0, 1, 2, 11), '0x1.b1212cd33ab33p+1', ('0x1.7d32c19419ff2p+1', '0x1.d895cd855370bp+1', '0x1.86b9392bc8066p+1', '0x1.d135f35e60395p+1', '0x1.a13ddfe69e572p+1', '0x1.d8e46ad26b982p+1'), 97, 45),
    ((13, 4, 4, 'decreasing', 1), (1, 7, 9, 12), '0x1.c86cee033abb8p-1', ('0x1.e0e8b5207d261p-1', '0x1.d22bf2e58ab9fp-1', '0x1.e3ed28a950978p-1', '0x1.a60f75b664aedp-1'), 29, 4),
    ((13, 4, 4, 'bench', 1), (0, 1, 11, 12), '0x1.b53f2aa6b061ap+1', ('0x1.db5a4209f59b6p+1', '0x1.9bda8e3f2129cp+1', '0x1.61e65da84e900p+1', '0x1.d1ddec66b04e1p+1'), 133, 59),
    ((15, 3, 6, 'decreasing', 2), (3, 7, 13), '0x1.e3fc6b80f6aa3p-1', ('0x1.cd24c7e24f656p-1', '0x1.ec2e170317729p-1', '0x1.eae28c836c4f0p-1', '0x1.d1ae63b7dbbfep-1', '0x1.f0c3d26e3c9edp-1', '0x1.df2091f972b60p-1'), 45, 1),
    ((15, 3, 6, 'bench', 2), (0, 1, 2), '0x1.c79697f0338dfp+1', ('0x1.a0dd7c1cd620ap+1', '0x1.bb7574b12e08dp+1', '0x1.cd5359b1566e7p+1', '0x1.ba9fcc8891592p+1', '0x1.cadf405f44319p+1', '0x1.de11ce3b3a0a9p+1'), 7, 1),
    ((14, 4, 3, 'decreasing', 3), (4, 8, 10, 13), '0x1.e2368cb97a3b1p-1', ('0x1.ec5a558823121p-1', '0x1.c0e5cef3811c9p-1', '0x1.ee67268b79c21p-1'), 43, 9),
    ((14, 4, 3, 'bench', 3), (0, 1, 12, 13), '0x1.d89032fae76b9p+1', ('0x1.d8e6ffe520073p+1', '0x1.c779f2da0f603p+1', '0x1.e05e0e81d7e63p+1'), 153, 67),
    ((16, 4, 3, 'decreasing', 4), (0, 3, 7, 9), '0x1.d7f178b388263p-1', ('0x1.eff312d32560ep-1', '0x1.eb2c7a2748866p-1', '0x1.b4a5b11d64995p-1'), 271, 32),
    ((16, 4, 3, 'bench', 4), (0, 1, 14, 15), '0x1.d64e05e04ec2cp+1', ('0x1.e353c3c7d42b2p+1', '0x1.a9c16924b2e62p+1', '0x1.e54b312cc587ap+1'), 185, 91),
    ((16, 3, 5, 'decreasing', 5), (4, 7, 9), '0x1.d5101a0863146p-1', ('0x1.c1d92ffd31973p-1', '0x1.e5927b317bac9p-1', '0x1.faceec4acad0ap-1', '0x1.b63c3f039862cp-1', '0x1.b597e60a63257p-1'), 319, 6),
    ((16, 3, 5, 'bench', 5), (0, 1, 2), '0x1.c2ad66312ca77p+1', ('0x1.cc3004405b084p+1', '0x1.a958db0576898p+1', '0x1.bba77630643b6p+1', '0x1.de61b05ad10f4p+1', '0x1.daae7f05fd3a9p+1'), 9, 1),
    ((60, 5, 3, 'decreasing', 0), (6, 13, 19, 24, 47), '0x1.fd947aad569f0p-1', ('0x1.fd7d4a04b2ffep-1', '0x1.fd3c9ca02675dp-1', '0x1.fe7821db10cddp-1'), 4849, 710),
    ((60, 5, 3, 'decreasing', 1), (11, 17, 30, 38, 42), '0x1.f69b317a6eefap-1', ('0x1.ed24c940050d4p-1', '0x1.ff805208c65b6p-1', '0x1.edcde0747d792p-1'), 8359, 327),
]


@st.composite
def tie_heavy_populations(draw):
    """A population of at most four types over m <= 8 items, and a k: phi = 0 types, repeated
    types, value tails of zeros, tied and flat values and equal weights are all likely."""
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        if specs and draw(st.booleans()):
            specs.append(specs[draw(st.integers(0, len(specs) - 1))])
            continue
        shape = draw(st.sampled_from(["random", "tied", "flat"]))
        if shape == "random":
            vals = np.sort(rng.uniform(0.0, 2.0, m))[::-1]
        elif shape == "tied":
            vals = np.maximum(2.0 - np.arange(m) // 2, 0.0)
        else:
            vals = np.ones(m)
        vals[draw(st.integers(1, m)):] = 0.0
        phi = draw(st.sampled_from([0.0, float(rng.uniform(0.05, 3.0))]))
        specs.append((Ranking(tuple(int(x) for x in rng.permutation(m))), phi, ValueProfile(tuple(map(float, vals)))))
    raw = np.ones(len(specs)) if draw(st.booleans()) else rng.uniform(0.2, 1.0, len(specs))
    pop = Population(tuple(mallows_type(gt, phi, values, float(w / raw.sum())) for (gt, phi, values), w in zip(specs, raw)))
    return pop, draw(st.integers(1, m))


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


def _menu_size_entry_points(m):
    pop = Population((mallows_type(Ranking.identity(m), 1.0, top_item_values(m), 1.0),))
    return {
        "AlgorithmPolicy": lambda k: AlgorithmPolicy(Ranking.identity(m), 1.0, k),
        "k_menus": lambda k: k_menus(m, k),
        "branch_and_bound_menu": lambda k: branch_and_bound_menu(pop, k),
        "build_mip": lambda k: build_mip(pop, k),
        "top_recovery_strategy": lambda k: top_recovery_strategy(pop, k),
    }


@pytest.mark.parametrize("k", [0, 5, 2.0, 2.5, True])
@pytest.mark.parametrize("name", list(_menu_size_entry_points(4)))
def test_every_entry_point_checks_the_menu_size_in_one_place(name, k):
    with pytest.raises(DomainError, match=re.escape(f"menu size {k} out of range for m=4")) as err:
        _menu_size_entry_points(4)[name](k)
    assert err.traceback[-1].name == "check_menu_size"


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
            welfare = dict(zip(map(tuple, menus.tolist()), _welfare(table, pop.weights())))
            order = tuple(int(x) for x in rng.permutation(m))
            _, items, values, caps, weights = _bound_inputs(pop, order)
            for fixed, rest, slots in search_nodes(order, k):
                best = max(welfare[tuple(sorted(fixed + extra))] for extra in itertools.combinations(rest, slots))
                cap = caps[list(fixed)].min(axis=0) if fixed else np.ones_like(values)
                bound = _node_bound(values, cap, np.isin(items, fixed + rest))
                assert weights @ bound >= best - BOUND_SLACK

    @pytest.mark.parametrize(
        "key, menu, welfare, per_type, nodes, evaluations", SEARCH_PINS,
        ids=[f"m{m}-k{k}-t{n}-{family}-rng{seed}" for (m, k, n, family, seed), *_ in SEARCH_PINS],
    )
    def test_the_search_is_pinned(self, key, menu, welfare, per_type, nodes, evaluations):
        m, k, n, family, seed = key
        result = branch_and_bound_menu(optimize_population(np.random.default_rng(seed), m, n, family), k)
        assert result.menu == menu
        assert result.welfare.hex() == welfare
        assert tuple(u.hex() for u in result.per_type) == per_type
        assert (result.nodes, result.evaluations) == (nodes, evaluations)

    @given(case=tie_heavy_populations())
    @settings(max_examples=120, deadline=None)
    def test_ties_give_enumerations_bits(self, case):
        # a leaf abandoned part-way is never a lexicographically smaller tie of the optimum
        pop, k = case
        enum = enumerate_best_menu(pop, k)
        bnb = branch_and_bound_menu(pop, k)
        assert bnb.menu == enum.menu
        assert bnb.welfare.hex() == enum.welfare.hex()
        assert [u.hex() for u in bnb.per_type] == [u.hex() for u in enum.per_type]

    def test_presorted_bound_has_the_bits_of_a_fresh_sort(self):
        # the pour at a node, sorted afresh: its items are the fixed ones then the candidates, in
        # search order, stably sorted by descending value, each capped by its weakest pairwise
        # comparison against the fixed items
        rng = np.random.default_rng(5)
        for i in range(30):
            m = int(rng.integers(3, 10))
            k = int(rng.integers(1, m + 1))
            families = ("mallows", "pl", "explicit") if i % 3 == 0 else ("mallows",)
            pop = heterogeneous_population(rng, m, int(rng.integers(1, 5)), families)
            order = tuple(int(x) for x in rng.permutation(m))
            _, items, values, caps, weights = _bound_inputs(pop, order)
            by_item = np.asarray([[h.value_of(x) for x in range(m)] for h in pop])
            pairs = np.asarray([pairwise_matrix(h.noise) for h in pop])
            pairs[:, np.arange(m), np.arange(m)] = 1.0  # an item never caps itself
            rows = np.arange(pop.n)[:, None]
            for fixed, rest, _ in search_nodes(order, k):
                menu = list(fixed + rest)
                v = by_item[:, menu]
                cap = pairs[:, menu][:, :, list(fixed)].min(axis=2) if fixed else np.ones_like(v)
                by_value = np.argsort(-v, axis=1, kind="stable")
                poured = np.minimum(np.cumsum(cap[rows, by_value], axis=1), 1.0)
                mass = poured.copy()
                mass[:, 1:] -= poured[:, :-1]
                fresh = float(weights @ (v[rows, by_value] * mass).sum(axis=1))
                running = caps[list(fixed)].min(axis=0) if fixed else np.ones_like(values)
                assert float(weights @ _node_bound(values, running, np.isin(items, menu))) == fresh

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


class TestSharedTable:
    @pytest.mark.parametrize("gamma, phi_h", [(3.0, 0.9), (0.5, 0.0), (3.0, 2.7)])
    def test_passed_table_gives_the_same_result(self, gamma, phi_h):
        pop = tension_population(gamma, phi_h)
        for k in (1, 3, 5):
            table = menu_utility_table(pop, k)
            assert enumerate_best_menu(pop, k, table=table) == enumerate_best_menu(pop, k)
            assert optimize_with_uplift(pop, k, table=table) == optimize_with_uplift(pop, k)

    def test_a_menu_is_a_tuple_of_ints_from_the_array_or_a_list_of_menus(self):
        pop = tension_population(0.5, 0.0)  # every k has a menu that uplifts
        for k in (1, 3, 5):
            menus, utilities = menu_utility_table(pop, k)
            listed = (list(map(tuple, menus.tolist())), utilities)
            for result in (enumerate_best_menu(pop, k), optimize_with_uplift(pop, k), branch_and_bound_menu(pop, k),
                           enumerate_best_menu(pop, k, table=listed), optimize_with_uplift(pop, k, table=listed)):
                assert type(result.menu) is tuple and all(type(x) is int for x in result.menu), result
            assert enumerate_best_menu(pop, k, table=listed) == enumerate_best_menu(pop, k)

    @pytest.mark.parametrize("solver", [enumerate_best_menu, optimize_with_uplift])
    def test_a_table_of_another_shape_is_refused(self, solver):
        pop = tension_population(3.0, 0.9)
        other = Population.single(pop.types[0])
        for table in (menu_utility_table(pop, 2), menu_utility_table(other, 3)):
            with pytest.raises(DimensionError):
                solver(pop, 3, table=table)


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

    @pytest.mark.parametrize("m", [2, 5, 8, 12])
    @pytest.mark.parametrize("n_types", [1, 3])
    def test_size_is_the_closed_form(self, rng, m, n_types):
        # stated in build_mip's docstring: O(types m^2), not one chain per item
        mip = build_mip(random_population(rng, m, n_types), 1)
        assert mip.num_variables == m + n_types * ((5 * m * m + 3 * m) // 2 - 1)
        assert len(mip.constraints) == 1 + n_types * ((9 * m * m + m) // 2 - 1)
        assert len(set(mip.var_names)) == mip.num_variables

    def test_type_without_value_adds_no_objective_terms(self):
        pop = Population(
            (
                mallows_type(Ranking.identity(3), 0.9, borda_values(3), 0.5),
                mallows_type(R(1, 0, 2), 1.1, ValueProfile((0.0, 0.0, 0.0)), 0.5),
            )
        )
        assert sorted(build_mip(pop, 2).objective) == [f"type0_V_{s}_3" for s in (1, 2, 3)]

    def test_fixed_binaries_lp_with_values_above_one(self):
        # every variable is bounded to [0, 1], so the value chain must carry
        # values scaled by the type's largest; the bench values reach 4
        pop = _bench_two_type_population(5)
        assert max(h.values[0] for h in pop) == 4.0
        mip = build_mip(pop, 2)
        for size in (1, 2):
            for menu in itertools.combinations(range(5), size):
                lp_value, _ = solve_mip(mip, fix_menu=menu)
                per_type = np.asarray([[menu_utility(h, menu) for h in pop]])
                assert lp_value == pytest.approx(_welfare(per_type, pop.weights())[0], abs=1e-9), menu

    @pytest.mark.parametrize(
        "menu, error",
        [((0, 9), DimensionError), ((7, 9), DimensionError), ((-1,), DimensionError),
         ((), DomainError), ((0, 1, 2), DomainError)],
    )
    def test_fixed_menu_is_checked(self, menu, error):
        pop = _bench_two_type_population(4)
        with pytest.raises(error):
            solve_mip(build_mip(pop, 2), fix_menu=menu)

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

    def test_presolve_failure_is_retried_without_presolve(self, monkeypatch):
        real, calls, solved = scipy.optimize.milp, [], []

        def milp(c, **kwargs):
            calls.append(kwargs.get("options"))
            if len(calls) == 1:
                return scipy.optimize.OptimizeResult(status=2, success=False, message="infeasible")
            solved.append(real(c, **kwargs))
            return solved[-1]

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        value, menu = solve_mip(build_mip(self._small_pop(), 2))
        assert calls == [None, {"presolve": False}]
        assert value == -solved[0].fun
        assert menu == tuple(i for i in range(3) if solved[0].x[i] > 0.5)

    def test_second_solver_failure_raises(self, monkeypatch):
        failed = scipy.optimize.OptimizeResult(status=2, success=False, message="infeasible")
        calls = []
        monkeypatch.setattr(scipy.optimize, "milp", lambda c, **kwargs: calls.append(kwargs) or failed)
        with pytest.raises(RuntimeError, match="solver failed: infeasible"):
            solve_mip(build_mip(self._small_pop(), 2))
        assert len(calls) == 2

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
        assert re.search(r"\btype0_V_\d+_\d+\b", text)
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
        terms = re.findall(r"type\d+_\w+_\d+_\d+", objective)
        # one value-chain term per final position, for each type with value
        assert sorted(terms) == [f"type{h}_V_{s}_3" for h in (0, 1) for s in (1, 2, 3)]

    def test_file_destination(self, tmp_path):
        pop = Population((mallows_type(Ranking.identity(3), 0.9, borda_values(3), 1.0),))
        mip = build_mip(pop, 2)
        path = tmp_path / "instance.lp"
        export_lp(mip, path)
        content = path.read_text()
        assert content.startswith("\\") and content.rstrip().endswith("End")
