"""Property tests for the batched choice kernel and the callers routed through it."""
import contextlib
import itertools
import math
from unittest import mock

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
    borda_values,
    branch_and_bound_menu,
    choice_dist,
    choice_table,
    enumerate_best_menu,
)
from shortlist import collab, models
from shortlist.choice import oracle_choice_dist
from shortlist.collab import center_menu_rows, joint_pick_from_menus, menu_utility, menu_utility_table
from shortlist.errors import DimensionError, DomainError
from shortlist.experiments import sushi_profile, tension_population
from shortlist.models import _mallows_pick_rows, menu_block
from shortlist.rankings import Population

accuracies = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def random_menus(rng, m: int, k: int, count: int) -> np.ndarray:
    """``count`` menus of ``k`` distinct items, each row in random order."""
    return np.array([rng.choice(m, size=k, replace=False) for _ in range(count)], dtype=np.intp)


SMALL_BLOCK = 64  # menus per block under small_blocks: a batch of a few hundred menus crosses several boundaries


@contextlib.contextmanager
def small_blocks(m: int, k: int, accuracies: int = 1):
    """``models.DP_STATE_FLOATS`` shrunk so that ``menu_block(m, k, accuracies)`` is ``SMALL_BLOCK`` inside the block."""
    with mock.patch.object(models, "DP_STATE_FLOATS", SMALL_BLOCK * max(1, k - 1) * accuracies * k * m):
        assert menu_block(m, k, accuracies) == SMALL_BLOCK
        yield


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
            assert np.max(np.abs(probs - tuple(oracle[x] for x in row))) <= 1e-12

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
            assert tuple(choice_dist(model, row)[x] for x in row) == tuple(table[b].tolist())

    def test_rows_agree_across_block_boundaries(self, rng):
        model = mallows_model(rng, 9, 0.8)
        size = menu_block(9, 4)  # 9,709 menus under the 2^20-float bound
        menus = random_menus(rng, 9, 4, size + 50)
        table = choice_table(model, menus)
        for b in (0, size - 1, size, size + 49):
            assert np.array_equal(choice_table(model, menus[b : b + 1])[0], table[b])
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)
        # menus that share a prefix share its DP state, so a row must not
        # depend on which rows sit beside it: the whole C(12, 4) lattice in
        # order, shuffled (rows and items), and with repeats past a block
        model = mallows_model(rng, 12, 0.8)
        lattice = np.array(list(itertools.combinations(range(12), 4)), dtype=np.intp)
        shuffled = rng.permuted(lattice, axis=1)[rng.permutation(len(lattice))]
        repeated = np.concatenate([lattice, shuffled, lattice[::7]])
        for batch in (lattice, shuffled, repeated):
            table = choice_table(model, batch)
            for b in range(len(batch)):
                assert choice_table(model, batch[b : b + 1])[0].tobytes() == table[b].tobytes()
        # pick_rows itself takes position rows in any order: unsorted rows
        # share fewer prefixes but keep their bits
        rows = np.take_along_axis(shuffled, np.argsort(np.asarray(model.ranks)[shuffled], axis=1), axis=1)
        positions = np.asarray(model.ranks, dtype=np.intp)[rows]
        assert model.pick_rows(positions).tobytes() == choice_table(model, rows).tobytes()

    @given(
        m=st.integers(1, 16),
        phi=accuracies,
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["mallows", "pl", "explicit"]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_pick_rows_reads_sorted_positions(self, m, phi, seed, family, data):
        k = data.draw(st.integers(1, m), label="k")
        count = data.draw(st.one_of(st.integers(1, 40), st.integers(SMALL_BLOCK - 3, SMALL_BLOCK + 60)), label="menus")
        rng = np.random.default_rng(seed)
        if family == "mallows":
            model = mallows_model(rng, m, phi)
        else:
            model = pl_model(rng, m) if family == "pl" else explicit_model(rng, m)
        ranks = np.asarray(model.ranks, dtype=np.intp)
        menus = random_menus(rng, m, k, count)
        items = np.take_along_axis(menus, np.argsort(ranks[menus], axis=1), axis=1)  # in model order
        with small_blocks(m, k):
            assert model.pick_rows(ranks[items]).tobytes() == choice_table(model, items).tobytes()

    @given(
        m=st.integers(1, 16),
        phis=st.lists(st.one_of(st.sampled_from([0.0, 700.0]), accuracies), min_size=1, max_size=5),
        layout=st.sampled_from(["lexicographic", "shuffled", "repeated"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_accuracy_axis_keeps_each_accuracys_bits(self, m, phis, layout, seed, data):
        k = data.draw(st.integers(1, m), label="k")
        count = data.draw(st.one_of(st.integers(1, 40), st.integers(SMALL_BLOCK - 3, SMALL_BLOCK + 60)), label="menus")
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans(), label="repeat"):
            phis = phis + [phis[int(rng.integers(len(phis)))]]
        center = Ranking(tuple(int(x) for x in rng.permutation(m)))
        ranks = np.asarray(center.positions, dtype=np.intp)
        positions = np.sort(ranks[random_menus(rng, m, k, count)], axis=1)
        if layout == "lexicographic":
            positions = positions[np.lexsort(positions.T[::-1])]
        elif layout == "repeated":
            positions = positions[rng.integers(0, max(1, count // 3), count)]
        rows = _mallows_pick_rows(positions, m, phis)
        assert rows.shape == (len(phis), count, k)
        checked = rng.choice(count, size=min(count, 25), replace=False)
        for phi, got in zip(phis, rows):
            model = MallowsModel(center, phi)
            assert got.tobytes() == model.pick_rows(positions).tobytes()
            with small_blocks(m, k):  # and cut into blocks, in any layout
                assert got.tobytes() == choice_table(model, np.asarray(center.order)[positions]).tobytes()
            for b in checked.tolist():
                menu = [center.order[p] for p in positions[b].tolist()]
                assert tuple(choice_dist(model, menu)[x] for x in menu) == tuple(got[b].tolist())

    @given(
        m=st.integers(2, 11),
        phi=st.one_of(st.sampled_from([0.0, 700.0]), accuracies),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_depends_only_on_positions_up_to_its_last_item(self, m, phi, seed, data):
        # a menu is read at the step of its last item: items inserted later,
        # as in a larger universe, leave its row unchanged
        k = data.draw(st.integers(1, m - 1), label="k")
        rng = np.random.default_rng(seed)
        positions = np.sort(random_menus(rng, m, k, data.draw(st.integers(1, 12), label="menus")), axis=1)
        rows = MallowsModel(Ranking.identity(m), phi).pick_rows(positions)
        for wider in range(m + 1, m + 6):
            assert np.max(np.abs(MallowsModel(Ranking.identity(wider), phi).pick_rows(positions) - rows)) <= 1e-15
        if m <= 7:
            model = MallowsModel(Ranking.identity(m), phi)
            for menu, row in zip(positions.tolist(), rows):
                oracle = oracle_choice_dist(model, menu)
                assert np.max(np.abs(row - [oracle[x] for x in menu])) <= 1e-12

    def test_explicit_model_rows(self, rng):
        model = explicit_model(rng, 5)
        menus = random_menus(rng, 5, 3, 10)
        for row, probs in zip(menus.tolist(), choice_table(model, menus)):
            assert tuple(probs.tolist()) == tuple(oracle_choice_dist(model, row)[x] for x in row)

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
            assert np.max(np.abs(probs - tuple(oracle[x] for x in row))) <= 1e-12

    @pytest.mark.parametrize("m", [2, 5, 9, 16])
    def test_full_universe_single_menu_is_bitwise_batch_row(self, rng, m):
        model = mallows_model(rng, m, float(rng.uniform(0.0, 3.0)))
        menus = random_menus(rng, m, m, 5)
        table = choice_table(model, menus)
        for b, row in enumerate(menus.tolist()):
            assert np.array_equal(choice_table(model, menus[b : b + 1])[0], table[b])
            assert tuple(choice_dist(model, row)[x] for x in row) == tuple(table[b].tolist())

    def test_extreme_accuracy_table_is_finite(self):
        pop = tension_population(1.0, 700.0)
        _, table = menu_utility_table(pop, 3)
        assert np.isfinite(table).all()


def menu_walk(rng, m: int, count: int) -> list[list[int]]:
    """``count`` menus of 1 < k < m increasing positions, each a new menu of any size, a repeat of the last or the
    last one's leading positions followed by an item before or after its next one."""
    walk = [sorted(rng.choice(m, int(rng.integers(2, m)), replace=False).tolist())]
    while len(walk) < count:
        last = walk[-1]
        kind = int(rng.integers(4))
        k, i = len(last), int(rng.integers(len(last)))  # the first index where the next menu differs
        lo = last[i - 1] + 1 if i else 0
        # the new item at index i, ahead of the last menu's (kind 2) or behind it (kind 3), with room for the rest
        room = range(lo, last[i]) if kind == 2 else range(last[i] + 1, m - (k - i) + 1)
        if kind == 0:
            walk.append(sorted(rng.choice(m, int(rng.integers(2, m)), replace=False).tolist()))
        elif kind == 1:
            walk.append(list(last))
        elif len(room):
            first = int(rng.choice(room))
            walk.append(last[:i] + [first] + sorted(rng.choice(range(first + 1, m), k - i - 1, replace=False).tolist()))
    return walk


class TestChainMemo:
    """A one-menu ``MallowsModel.pick_rows`` call resumes from the states of the model's last one."""

    @pytest.mark.parametrize("phi", [0.0, 1e-9, "uniform", 50.0, 800.0])
    @pytest.mark.parametrize("m", [3, 4, 7, 12, 20])
    def test_a_walk_of_menus_keeps_the_kernels_bits(self, rng, m, phi):
        phi = float(rng.uniform(0.0, 3.0)) if phi == "uniform" else phi
        center = Ranking(tuple(int(x) for x in rng.permutation(m)))
        model = MallowsModel(center, phi)
        walk = menu_walk(rng, m, 60)
        kept = {}  # id -> (a kept state, its bytes when kept)
        for pos in walk:
            rows = np.array([pos], dtype=np.intp)
            got = model.pick_rows(rows).tobytes()
            assert got == _mallows_pick_rows(rows, m, (phi,))[0].tobytes()
            assert got == MallowsModel(center, phi).pick_rows(rows).tobytes()
            positions, states = model._chain
            assert list(positions) == pos
            assert len(states) <= 2 * (len(pos) - 1)
            kept.update((id(X), (X, X.tobytes())) for _, X in states)
        assert all(X.tobytes() == when_kept for X, when_kept in kept.values())
        # the same menus in another order: the same bits
        order = rng.permutation(len(walk))
        for b in order.tolist():
            rows = np.array([walk[b]], dtype=np.intp)
            assert model.pick_rows(rows).tobytes() == _mallows_pick_rows(rows, m, (phi,))[0].tobytes()

    def test_the_memo_is_not_part_of_the_model(self, rng):
        model = mallows_model(rng, 9, 0.7)
        model.pick_rows(np.array([[1, 4, 6]], dtype=np.intp))
        twin = MallowsModel(model.center, 0.7)
        assert model == twin and hash(model) == hash(twin) and repr(model) == repr(twin)


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

    def test_gathered_columns_span_menu_blocks(self, rng):
        # C(13, 4) = 715 menus in blocks of SMALL_BLOCK: the gather crosses block boundaries
        m, k = 13, 4
        shared, other = (ValueProfile(tuple(sorted(rng.uniform(0.0, 5.0, m), reverse=True))) for _ in range(2))
        types = [
            HumanType(model.center, model, values, 0.1)
            for model, values in (
                (mallows_model(rng, m, 0.8), shared),  # three types of one (phi, values) column
                (mallows_model(rng, m, 0.8), shared),
                (mallows_model(rng, m, 0.8), shared),
                (mallows_model(rng, m, 0.8), other),  # same phi, other values
                (mallows_model(rng, m, 1.7), shared),  # same values, other phi
            )
        ]
        pl = pl_model(rng, m)
        types.append(HumanType(pl.center, pl, other, 0.25))
        gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
        types.append(HumanType(gt, explicit_model(rng, m), shared, 0.25))
        pop = Population(tuple(types))
        with small_blocks(m, k, 2):  # Mallows accuracies 0.8 and 1.7
            menus, table = menu_utility_table(pop, k)
        assert len(menus) > SMALL_BLOCK
        for row, menu in enumerate(menus):
            for col, h in enumerate(pop):
                assert table[row, col] == menu_utility(h, menu)

    def test_one_kernel_call_per_block_keeps_each_types_bits(self, rng, monkeypatch):
        # C(13, 4) = 715 menus; Mallows types at two accuracies, each with its own center and values
        m, k = 13, 4
        types = []
        for phi in (0.8, 1.7, 0.8, 1.7):
            model = mallows_model(rng, m, phi)
            values = ValueProfile(tuple(sorted(rng.uniform(0.0, 5.0, m).tolist(), reverse=True)))
            types.append(HumanType(model.center, model, values, 0.25))
        pop = Population(tuple(types))
        want = [[u.hex() for u in menu_utility_table(Population.single(h), k)[1][:, 0].tolist()] for h in pop]
        calls = []
        kernel = collab._mallows_pick_rows
        monkeypatch.setattr(
            collab, "_mallows_pick_rows", lambda pos, m, phis: calls.append((len(pos), list(phis))) or kernel(pos, m, phis)
        )
        monkeypatch.setattr(MallowsModel, "pick_rows", None)  # the table never scores one accuracy alone
        menus, table = menu_utility_table(pop, k)
        assert calls == [(len(menus), [0.8, 1.7])]  # one pass under the 2^20-float bound
        assert [[u.hex() for u in column] for column in table.T.tolist()] == want
        calls.clear()
        with small_blocks(m, k, 2):
            menus, table = menu_utility_table(pop, k)
        assert calls == [(min(SMALL_BLOCK, len(menus) - lo), [0.8, 1.7]) for lo in range(0, len(menus), SMALL_BLOCK)]
        assert len(calls) == 12
        assert [[u.hex() for u in column] for column in table.T.tolist()] == want

    def test_a_table_stacks_its_accuracies_once(self, rng):
        # C(16, 4) = 1820 menus at six accuracies: two blocks of 910 menus read one stacked step table
        m, k = 16, 4
        types = []
        for phi in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
            model = mallows_model(rng, m, phi)
            types.append(HumanType(model.center, model, borda_values(m), 1 / 6))
        pop = Population(tuple(types))
        models._step_rows.cache_clear()
        menus, _ = menu_utility_table(pop, k)
        assert len(menus) > menu_block(m, k, 6) == 910
        assert models._step_rows.cache_info().misses == 1


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
    # at the identity, each set's rank in center_menu_rows is its own index
    for k in range(1, m + 1):
        assert np.array_equal(center_menu_rows(np.arange(m)[None], k), np.arange(math.comb(m, k))[None])


@pytest.mark.parametrize("m, k", [(12, 5), (13, 4), (4, 2)])
def test_center_menu_rows_ranks_each_moved_set(rng, m, k):
    sets = list(itertools.combinations(range(m), k))
    lex = {s: i for i, s in enumerate(sets)}
    centers = np.array([rng.permutation(m) for _ in range(3)], dtype=np.intp)
    rows = center_menu_rows(centers, k)
    assert rows.shape == (3, len(sets))
    for c, center in enumerate(centers.tolist()):
        assert rows[c].tolist() == [lex[tuple(sorted(center[x] for x in s))] for s in sets]
    assert center_menu_rows(np.empty((0, m), dtype=np.intp), k).shape == (0, len(sets))
