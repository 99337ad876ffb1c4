"""Property tests for the batched choice kernel and the callers routed through it."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortlist import (
    ExplicitModel,
    HumanType,
    MallowsModel,
    PlackettLuceModel,
    Ranking,
    ValueProfile,
    branch_and_bound_menu,
    choice_dist,
    choice_table,
    enumerate_best_menu,
)
from shortlist.choice import MENU_BLOCK, oracle_choice_dist
from shortlist.collab import joint_pick_from_menus
from shortlist.errors import DimensionError, DomainError
from shortlist.experiments import sushi_profile, tension_population
from shortlist.optimize import menu_utility, menu_utility_table, position_set_rank
from shortlist.rankings import Population

accuracies = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def random_menus(rng, m: int, k: int, count: int) -> np.ndarray:
    """``count`` menus of ``k`` distinct items, each row in random order."""
    return np.array([rng.choice(m, size=k, replace=False) for _ in range(count)], dtype=np.intp)


def mallows_model(rng, m: int, phi: float) -> MallowsModel:
    return MallowsModel(Ranking(tuple(int(x) for x in rng.permutation(m))), phi)


def pl_model(rng, m: int) -> PlackettLuceModel:
    return PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, m)), float(rng.uniform(0.1, 2.0)))


def explicit_model(rng, m: int) -> ExplicitModel:
    perms = {tuple(int(x) for x in rng.permutation(m)) for _ in range(4)}
    weights = rng.uniform(0.1, 1.0, len(perms))
    weights /= weights.sum()
    return ExplicitModel(tuple((Ranking(p), float(w)) for p, w in zip(sorted(perms), weights)))


class TestChoiceTable:
    @pytest.mark.parametrize("k", range(1, 8))
    @given(data=st.data(), phi=accuracies, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_matches_oracle(self, k, data, phi, seed):
        m = data.draw(st.integers(max(k, 2), 7), label="m")
        rng = np.random.default_rng(seed)
        model = mallows_model(rng, m, phi)
        menus = random_menus(rng, m, k, 2)
        table = choice_table(model, menus)
        for row, probs in zip(menus.tolist(), table):
            oracle = oracle_choice_dist(model, row)
            assert np.max(np.abs(probs - oracle.as_tuple(row))) <= 1e-12

    @given(
        m=st.integers(2, 16),
        phi=accuracies,
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["mallows", "pl", "explicit"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_menu_row_is_bitwise_batch_row(self, m, phi, seed, family, data):
        k = data.draw(st.integers(1, m), label="k")
        rng = np.random.default_rng(seed)
        if family == "mallows":
            model = mallows_model(rng, m, phi)
        else:
            model = pl_model(rng, m) if family == "pl" else explicit_model(rng, m)
        menus = random_menus(rng, m, k, data.draw(st.integers(1, 40), label="menus"))
        table = choice_table(model, menus)
        for b, row in enumerate(menus.tolist()):
            assert np.array_equal(choice_table(model, menus[b : b + 1])[0], table[b])
            assert choice_dist(model, row).as_tuple(row) == tuple(table[b].tolist())

    def test_rows_agree_across_block_boundaries(self, rng):
        model = mallows_model(rng, 9, 0.8)
        menus = random_menus(rng, 9, 4, MENU_BLOCK + 50)
        table = choice_table(model, menus)
        for b in (0, MENU_BLOCK - 1, MENU_BLOCK, MENU_BLOCK + 49):
            assert np.array_equal(choice_table(model, menus[b : b + 1])[0], table[b])
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_explicit_model_rows(self, rng):
        model = explicit_model(rng, 5)
        menus = random_menus(rng, 5, 3, 10)
        for row, probs in zip(menus.tolist(), choice_table(model, menus)):
            assert tuple(probs.tolist()) == oracle_choice_dist(model, row).as_tuple(row)

    def test_rejects_bad_menus(self):
        model = MallowsModel(Ranking((2, 0, 1)), 0.5)
        with pytest.raises(DomainError):
            choice_table(model, [[0, 0]])
        with pytest.raises(DimensionError):
            choice_table(model, [[0, 3]])
        with pytest.raises(DomainError):
            choice_table(model, np.empty((2, 0), dtype=int))
        with pytest.raises(DimensionError):
            choice_table(model, [0, 1])

    @pytest.mark.parametrize("phi", [0.0, 700.0])
    @pytest.mark.parametrize("m", range(2, 8))
    def test_full_universe_rows_match_oracle(self, rng, m, phi):
        model = mallows_model(rng, m, phi)
        menus = random_menus(rng, m, m, 3)
        for row, probs in zip(menus.tolist(), choice_table(model, menus)):
            oracle = oracle_choice_dist(model, row)
            assert np.max(np.abs(probs - oracle.as_tuple(row))) <= 1e-12

    @pytest.mark.parametrize("m", [2, 5, 9, 16])
    def test_full_universe_single_menu_is_bitwise_batch_row(self, rng, m):
        model = mallows_model(rng, m, float(rng.uniform(0.0, 3.0)))
        menus = random_menus(rng, m, m, 5)
        table = choice_table(model, menus)
        for b, row in enumerate(menus.tolist()):
            assert np.array_equal(choice_table(model, menus[b : b + 1])[0], table[b])
            assert choice_dist(model, row).as_tuple(row) == tuple(table[b].tolist())

    def test_extreme_accuracy_table_is_finite(self):
        pop = tension_population(1.0, 700.0)
        _, table = menu_utility_table(pop, 3)
        assert np.isfinite(table).all()


class TestBatchedJoint:
    @given(
        m=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["mallows", "pl", "explicit"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_menu_sum(self, m, seed, family, data):
        rng = np.random.default_rng(seed)
        if family == "mallows":
            noise = mallows_model(rng, m, data.draw(accuracies, label="phi"))
        elif family == "pl":
            noise = pl_model(rng, m)
        else:
            noise = explicit_model(rng, m)
        gt = getattr(noise, "center", None) or Ranking(tuple(int(x) for x in rng.permutation(m)))
        h = HumanType(gt, noise, ValueProfile(tuple(range(m, 0, -1))), 1.0)
        menus = {}
        for _ in range(data.draw(st.integers(1, 12), label="menus")):
            size = int(rng.integers(1, m + 1))
            menus[frozenset(int(x) for x in rng.choice(m, size=size, replace=False))] = 0.0
        nonzero = [menu for i, menu in enumerate(menus) if i == 0 or rng.random() < 0.7]
        for menu, w in zip(nonzero, rng.dirichlet(np.ones(len(nonzero)))):
            menus[menu] = float(w)
        want: dict[int, float] = {}
        for menu, p_menu in menus.items():
            if p_menu != 0.0:
                for item, p in choice_dist(noise, menu).items():
                    want[item] = want.get(item, 0.0) + p_menu * p
        got = joint_pick_from_menus(h, menus)
        assert set(got.probs) == set(want)
        for item, p in want.items():
            assert abs(got[item] - p) <= 1e-12


class TestTableAgreement:
    @given(
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        phi_h=st.one_of(st.sampled_from([0.0, 0.5, 2.25]), accuracies),
        k=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_bnb_equals_enumeration_on_tension_ties(self, gamma, phi_h, k):
        pop = tension_population(gamma, phi_h)
        enum = enumerate_best_menu(pop, k)
        bnb = branch_and_bound_menu(pop, k)
        assert bnb.menu == enum.menu
        assert bnb.welfare == enum.welfare
        assert bnb.per_type == enum.per_type

    def test_table_entries_equal_single_menu_utility(self, rng):
        populations = (
            sushi_profile().to_population(0.9),  # 33 types sharing one accuracy
            tension_population(0.7, 1.3),  # 6 types sharing one accuracy
            mixed_population(rng, 6),
        )
        for pop in populations:
            for k in (1, 3, pop.m):
                menus, table = menu_utility_table(pop, k)
                assert table.shape == (math.comb(pop.m, k), pop.n)
                for row in range(len(menus)):
                    for col, h in enumerate(pop):
                        assert table[row, col] == menu_utility(h, menus[row])


def mixed_population(rng, m: int) -> Population:
    """Mallows types at a shared and a distinct accuracy, Plackett-Luce and explicit types."""
    types = []
    for noise in ("shared", "shared", "distinct", "pl", "explicit"):
        values = ValueProfile(tuple(sorted(rng.uniform(0.0, 5.0, m), reverse=True)))
        if noise == "pl":
            model = pl_model(rng, m)
        elif noise == "explicit":
            model = explicit_model(rng, m)
        else:
            model = mallows_model(rng, m, 0.8 if noise == "shared" else 1.7)
        gt = getattr(model, "center", None) or Ranking(tuple(int(x) for x in rng.permutation(m)))
        types.append(HumanType(gt, model, values, 0.2))
    return Population(tuple(types))


@pytest.mark.parametrize("m", range(1, 10))
def test_position_set_rank_round_trips(m):
    for k in range(1, m + 1):
        sets = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
        assert np.array_equal(position_set_rank(m, k)(sets), np.arange(len(sets)))

