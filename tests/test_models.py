import decimal
import itertools
import math

import numpy as np
import pytest

from conftest import make_ranking as R, mallows_support_oracle
from shortlist import (
    ExplicitModel,
    MallowsModel,
    PlackettLuceModel,
    Ranking,
    apply_swap,
    enumerate_event_prob,
    model_menu_distribution,
)
from shortlist.errors import CapacityError, DimensionError, DomainError
from shortlist.models import ENUMERATION_CAP, _insertion_rows, row_z

LN2 = math.log(2)

# one model of each family over four items
FAMILIES = {
    "mallows": lambda: MallowsModel(R(2, 0, 3, 1), 0.7),
    "pl": lambda: PlackettLuceModel((0.5, 2.0, -1.0, 1.0), 0.8),
    "explicit": lambda: ExplicitModel(((R(0, 1, 2, 3), 0.5), (R(3, 1, 0, 2), 0.3), (R(1, 2, 3, 0), 0.2))),
}


@pytest.fixture
def m3_half():
    return MallowsModel(R(0, 1, 2), LN2)


class TestMallowsPermProb:
    def test_center_weight(self, m3_half):
        # six permutations carry weights 1, 1/2, 1/2, 1/4, 1/4, 1/8 -> total 21/8
        assert m3_half.perm_prob(R(0, 1, 2)) == pytest.approx(8 / 21, abs=1e-15)

    def test_reversal(self, m3_half):
        assert m3_half.perm_prob(R(2, 1, 0)) == pytest.approx(1 / 21, abs=1e-15)

    def test_single_item(self):
        assert MallowsModel(R(0), 1.3).perm_prob(R(0)) == 1.0

    def test_dimension_mismatch(self, m3_half):
        with pytest.raises(DimensionError):
            m3_half.perm_prob(R(0, 1))

    def test_nan_phi_rejected(self):
        with pytest.raises(DomainError):
            MallowsModel(R(0, 1, 2), math.nan)

    def test_infinite_phi_points_to_noiseless(self):
        with pytest.raises(DomainError, match="NOISELESS"):
            MallowsModel(R(0, 1, 2), math.inf)

    def test_matches_oracle(self, rng):
        for m in (2, 3, 4, 5):
            phi = float(rng.uniform(0.0, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            for r, expected in mallows_support_oracle(center, phi):
                assert model.perm_prob(r) == pytest.approx(expected, abs=1e-12)


class TestMallowsFirstItem:
    def test_second_center_item(self, m3_half):
        assert m3_half.topk_set_prob({1}) == pytest.approx(2 / 7, abs=1e-15)

    def test_uniform_limit(self):
        model = MallowsModel(R(0, 1, 2, 3), 0.0)
        for x in range(4):
            assert model.topk_set_prob({x}) == pytest.approx(0.25)

    def test_sums_to_one(self, m3_half):
        assert math.fsum(m3_half.topk_set_prob({x}) for x in range(3)) == pytest.approx(1.0)

    def test_matches_oracle(self, rng):
        for m in (3, 5):
            phi = float(rng.uniform(0.1, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            support = mallows_support_oracle(center, phi)
            for x in range(m):
                expected = math.fsum(p for r, p in support if r.order[0] == x)
                assert model.topk_set_prob({x}) == pytest.approx(expected, abs=1e-12)


class TestMallowsPairwise:
    def test_adjacent(self, m3_half):
        assert m3_half.pairwise_prob(0, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_gap_two(self, m3_half):
        assert m3_half.pairwise_prob(0, 2) == pytest.approx(16 / 21, abs=1e-15)

    def test_noiseless_limit(self):
        model = MallowsModel(R(0, 1, 2), 60.0)
        assert model.pairwise_prob(0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_limit(self):
        assert MallowsModel(R(0, 1, 2), 0.0).pairwise_prob(0, 2) == 0.5

    def test_either_orientation(self, m3_half):
        assert m3_half.pairwise_prob(2, 0) == pytest.approx(5 / 21, abs=1e-15)
        assert m3_half.pairwise_prob(1, 0) == pytest.approx(1 / 3, abs=1e-15)
        with pytest.raises(DomainError):
            m3_half.pairwise_prob(1, 1)

    def test_gap_monotonicity(self, rng):
        for _ in range(50):
            m = int(rng.integers(3, 9))
            phi = float(rng.uniform(0.01, 3.0))
            model = MallowsModel(Ranking.identity(m), phi)
            probs = [model.pairwise_prob(0, j) for j in range(1, m)]
            assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))

    def test_tiny_phi_large_gap_stable(self):
        # the sum of positive terms keeps the small-phi sweep accurate
        model = MallowsModel(Ranking.identity(30), 1e-9)
        p = model.pairwise_prob(0, 29)
        assert 0.5 < p < 0.5 + 1e-6

    def test_matches_oracle(self, rng):
        for m in (3, 4, 5):
            phi = float(rng.uniform(0.1, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            support = mallows_support_oracle(center, phi)
            for i in range(m):
                for j in range(m):
                    if center.position(i) < center.position(j):
                        expected = math.fsum(
                            p for r, p in support if r.position(i) < r.position(j)
                        )
                        assert model.pairwise_prob(i, j) == pytest.approx(expected, abs=1e-12)

    # accuracies from the uniform limit to past where expm1(phi * gap) overflows;
    # at 1.24 the gap-29 pair once came out at 1 + 1.6e-15
    PHI_GRID = [0.0] + [10.0**e for e in range(-6, 7)] + [1.24, 800.0, 1e308]

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_both_orientations_stay_in_the_unit_interval(self, phi):
        model = MallowsModel(Ranking.identity(40), phi)
        for gap in range(1, 40):
            better, worse = model.pairwise_prob(0, gap), model.pairwise_prob(gap, 0)
            assert 0.0 <= better <= 1.0 and 0.0 <= worse <= 1.0, (gap, better, worse)
            assert abs(better + worse - 1.0) <= 4.5e-16, (gap, better, worse)

    @pytest.mark.parametrize("phi", [10.0 ** (e / 4) for e in range(-40, 9)] + [3.2e-5, 1.24])
    def test_matches_a_60_digit_evaluation(self, phi):
        # w(n) - w(n+1) with w(x) = x e^{-phi x} / (1 - e^{-phi x}) cancels
        # in floats at small phi * gap (1.2e-11 off at phi = 3.2e-5, gap 31);
        # in 60-digit decimals it is the reference
        model = MallowsModel(Ranking.identity(40), phi)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            q = (-decimal.Decimal(phi)).exp()
            w = [x * q**x / (1 - q**x) for x in range(1, 41)]
            for gap in range(1, 40):
                worse = w[gap - 1] - w[gap]
                assert abs(model.pairwise_prob(gap, 0) - float(worse)) <= 1e-14, gap
                assert abs(model.pairwise_prob(0, gap) - float(1 - worse)) <= 1e-14, gap

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_every_ordered_pair_matches_enumeration(self, phi, rng):
        for m in range(2, ENUMERATION_CAP + 1):
            model = MallowsModel(Ranking(tuple(rng.permutation(m))), phi)
            # one enumeration of the support per model; the sum is enumerate_event_prob's
            support = list(model.support())
            for i, j in itertools.permutations(range(m), 2):
                expected = math.fsum(p for r, p in support if r.positions[i] < r.positions[j])
                assert abs(model.pairwise_prob(i, j) - expected) <= 1e-12, (m, i, j)


class TestMallowsTopK:
    def test_all_two_item_menus_m3(self, m3_half):
        assert m3_half.topk_set_prob({0, 1}) == pytest.approx(4 / 7, abs=1e-15)
        assert m3_half.topk_set_prob({0, 2}) == pytest.approx(2 / 7, abs=1e-15)
        assert m3_half.topk_set_prob({1, 2}) == pytest.approx(1 / 7, abs=1e-15)

    def test_full_set(self, m3_half):
        assert m3_half.topk_set_prob({0, 1, 2}) == pytest.approx(1.0, abs=1e-15)

    def test_all_subset_sums(self, rng):
        for m in (4, 5, 6, 7):
            phi = float(rng.uniform(0.0, 3.0))
            model = MallowsModel(Ranking(tuple(rng.permutation(m))), phi)
            for k in range(1, m + 1):
                total = math.fsum(
                    model.topk_set_prob(s) for s in itertools.combinations(range(m), k)
                )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_substitution_monotonicity(self, rng):
        # replacing a menu item with a center-worse one never raises the
        # probability of being the exact top set
        for _ in range(100):
            m = int(rng.integers(3, 7))
            phi = float(rng.uniform(0.0, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            k = int(rng.integers(1, m))
            S = set(int(x) for x in rng.choice(m, size=k, replace=False))
            outside = [x for x in range(m) if x not in S]
            if not outside:
                continue
            x_out = int(rng.choice(outside))
            worse_members = [x for x in S if center.position(x) < center.position(x_out)]
            if not worse_members:
                continue
            x_in = int(rng.choice(worse_members))
            S2 = (S - {x_in}) | {x_out}
            assert model.topk_set_prob(S2) <= model.topk_set_prob(S) + 1e-12

    def test_matches_oracle(self, rng):
        for m in (3, 4, 5):
            phi = float(rng.uniform(0.1, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            support = mallows_support_oracle(center, phi)
            for k in range(1, m + 1):
                for s in itertools.combinations(range(m), k):
                    expected = math.fsum(
                        p for r, p in support if r.top(k) == frozenset(s)
                    )
                    assert model.topk_set_prob(s) == pytest.approx(expected, abs=1e-12)


class TestInsertionTable:
    def test_two_slot_row(self):
        probs, _, _, _ = _insertion_rows(2, LN2)
        assert tuple(probs[1, :2]) == pytest.approx((1 / 3, 2 / 3), abs=1e-15)

    def test_first_row_trivial(self):
        probs, _, _, _ = _insertion_rows(3, 1.7)
        assert tuple(probs[0, :1]) == (1.0,)

    def test_uniform_rows_at_phi_zero(self):
        probs, _, _, _ = _insertion_rows(4, 0.0)
        for t in range(1, 5):
            assert tuple(probs[t - 1, :t]) == pytest.approx(tuple([1 / t] * t))

    def test_rows_sum_to_one_and_gamma_monotone(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 9))
            phi = float(rng.uniform(0.0, 3.0))
            probs, gammas, _, _ = _insertion_rows(m, phi)
            for t in range(1, m + 1):
                row, gamma = probs[t - 1, :t], gammas[t - 1, :t]
                assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
                assert np.all(np.diff(gamma) >= -1e-15)
                assert gamma[-1] == pytest.approx(1.0, abs=1e-12)

    def test_path_product_equals_perm_prob(self, rng):
        # the insertion path to any fixed permutation is unique; its product
        # must reproduce the model's exact probability
        for m in (2, 3, 4, 5):
            phi = float(rng.uniform(0.0, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            probs, _, _, _ = _insertion_rows(m, phi)
            for perm in itertools.permutations(range(m)):
                r = Ranking(perm)
                prob = 1.0
                for t in range(1, m + 1):
                    prefix = [x for x in r.order if center.position(x) < t]
                    s = prefix.index(center.order[t - 1]) + 1
                    prob *= float(probs[t - 1, s - 1])
                assert prob == pytest.approx(model.perm_prob(r), rel=1e-12)


class TestMallowsSampling:
    def test_noiseless_limit(self, rng):
        model = MallowsModel(R(2, 0, 1), 80.0)
        assert (model.sample_many(rng, 20) == [2, 0, 1]).all()

    def test_seed_determinism(self):
        model = MallowsModel(R(0, 1, 2, 3), 0.8)
        a = model.sample_many(np.random.default_rng(5), 1)
        b = model.sample_many(np.random.default_rng(5), 1)
        draws1 = model.sample_many(np.random.default_rng(99), 10)
        draws2 = model.sample_many(np.random.default_rng(99), 10)
        assert (a == b).all() and (draws1 == draws2).all()

    def test_center_frequency(self, rng):
        model = MallowsModel(R(0, 1, 2), LN2)
        n = 100_000
        hits = int((model.sample_many(rng, n) == [0, 1, 2]).all(axis=1).sum())
        p = 8 / 21
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


class TestSampleMany:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_are_orders_and_seeded(self, family):
        model = FAMILIES[family]()
        orders = model.sample_many(np.random.default_rng(7), 500)
        assert orders.shape == (500, 4)
        assert (np.sort(orders, axis=1) == np.arange(4)).all()
        assert (model.sample_many(np.random.default_rng(7), 500) == orders).all()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_frequencies_match_perm_prob(self, family, rng):
        model = FAMILIES[family]()
        n = 40_000
        orders = model.sample_many(rng, n)
        for perm in itertools.permutations(range(4)):
            p = model.perm_prob(Ranking(perm))
            freq = float((orders == perm).all(axis=1).mean())
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-12, (perm, freq, p)


class TestPlackettLuce:
    def test_two_item_prob(self):
        model = PlackettLuceModel((1.0, 0.0), 1.0)
        assert model.perm_prob(R(0, 1)) == pytest.approx(math.e / (math.e + 1), abs=1e-15)

    def test_equal_values_uniform(self):
        model = PlackettLuceModel((0.5, 0.5, 0.5), 2.0)
        for perm in itertools.permutations(range(3)):
            assert model.perm_prob(Ranking(perm)) == pytest.approx(1 / 6, abs=1e-12)

    def test_items_outside_the_universe_are_rejected(self):
        model = PlackettLuceModel((1.0, 0.0, -1.0), 1.0)
        for query in (
            lambda: model.topk_set_prob([0, 3]),
            lambda: model.topk_set_prob({-1}),
            lambda: model.pairwise_prob(0, 3),
        ):
            with pytest.raises(DimensionError):
                query()
        with pytest.raises(DomainError):
            model.topk_set_prob([])

    def test_low_noise_concentrates(self):
        model = PlackettLuceModel((3.0, 2.0, 1.0), 1e-3)
        assert model.perm_prob(R(0, 1, 2)) == pytest.approx(1.0, abs=1e-10)

    def test_probs_sum_to_one(self, rng):
        for m in (2, 3, 4, 5):
            values = tuple(float(v) for v in rng.normal(size=m))
            model = PlackettLuceModel(values, float(rng.uniform(0.2, 3.0)))
            total = math.fsum(p for _, p in model.support())
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_center_breaks_ties_by_index(self):
        model = PlackettLuceModel((1.0, 2.0, 1.0), 1.0)
        assert model.center == R(1, 0, 2)

    def test_beta_must_be_positive(self):
        with pytest.raises(DomainError):
            PlackettLuceModel((1.0, 0.0), 0.0)

    def test_nan_beta_rejected(self):
        with pytest.raises(DomainError):
            PlackettLuceModel((1.0, 0.0), math.nan)

    def test_nan_item_value_rejected(self):
        with pytest.raises(DomainError):
            PlackettLuceModel((1.0, math.nan), 1.0)

    def test_pairwise_is_logistic(self):
        model = PlackettLuceModel((1.0, 0.0, -1.0), 2.0)
        assert model.pairwise_prob(0, 2) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-15)

    def test_topk_set_prob_matches_enumeration(self, rng):
        for m in (1, 3, 4, 5, 6, 7):
            values = tuple(float(v) for v in rng.normal(0.0, 2.0, size=m))
            model = PlackettLuceModel(values, float(rng.uniform(0.1, 2.0)))
            support = list(model.support())
            for k in range(1, min(m, 5) + 1):
                by_set: dict[frozenset, list] = {}
                for r, p in support:
                    by_set.setdefault(r.top(k), []).append(p)
                for s in itertools.combinations(range(m), k):
                    expected = math.fsum(by_set.get(frozenset(s), []))
                    assert model.topk_set_prob(s) == pytest.approx(expected, abs=1e-12)

    def test_sampling_frequency(self, rng):
        model = PlackettLuceModel((1.0, 0.0), 1.0)
        n = 100_000
        draws = int((model.sample_many(rng, n) == [0, 1]).all(axis=1).sum())
        p = math.e / (math.e + 1)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(draws / n - p) < 3 * sigma

    def test_sampling_uniform_when_values_equal(self, rng):
        model = PlackettLuceModel((1.0, 1.0, 1.0), 1.0)
        n = 60_000
        orders = model.sample_many(rng, n)
        for perm in itertools.permutations(range(3)):
            freq = int((orders == perm).all(axis=1).sum()) / n
            assert abs(freq - 1 / 6) < 4 * math.sqrt((1 / 6) * (5 / 6) / n)

    def test_low_noise_sampling(self, rng):
        model = PlackettLuceModel((5.0, 1.0, 0.0), 1e-3)
        assert model.sample_many(rng, 1)[0].tolist() == [0, 1, 2]


class TestExplicitModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExplicitModel(((R(0, 1), 0.5), (R(1, 0), 0.6)))
        with pytest.raises(DomainError):
            ExplicitModel(((R(0, 1), 0.5), (R(0, 1), 0.5)))
        with pytest.raises(DimensionError):
            ExplicitModel(((R(0, 1), 0.5), (R(0, 1, 2), 0.5)))

    def test_perm_prob(self):
        model = ExplicitModel(((R(0, 1, 2), 0.9), (R(1, 0, 2), 0.1)))
        assert model.perm_prob(R(0, 1, 2)) == 0.9
        assert model.perm_prob(R(2, 1, 0)) == 0.0

    @pytest.mark.parametrize("m", range(1, 6))
    def test_menu_distribution_matches_enumeration(self, rng, m):
        perms = {tuple(int(x) for x in rng.permutation(m)) for _ in range(6)}
        weights = rng.dirichlet(np.ones(len(perms)))
        model = ExplicitModel(tuple((Ranking(p), float(w)) for p, w in zip(sorted(perms), weights)))
        for k in range(1, m + 1):
            dist = model_menu_distribution(model, k)
            assert set(dist) == {frozenset(s) for s in itertools.combinations(range(m), k)}
            for menu, p in dist.items():
                assert abs(p - enumerate_event_prob(model, lambda r: r.top(k) == menu)) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        MallowsModel(R(0, 1, 2), LN2),
        PlackettLuceModel((1.0, 0.0, -1.0), 1.0),
        ExplicitModel(((R(0, 1, 2), 0.9), (R(1, 0, 2), 0.1))),
    ],
    ids=["mallows", "pl", "explicit"],
)
def test_topk_set_prob_rejects_empty_and_unknown_items(model):
    """Every family refuses an item outside 0..m-1 with DimensionError."""
    from shortlist import psi

    with pytest.raises(DomainError):
        model.topk_set_prob([])
    queries = [lambda: psi(model, 0, 1, 9)]
    for bad in (-1, 3, 9):
        queries += [
            lambda bad=bad: model.topk_set_prob([0, bad]),
            lambda bad=bad: model.topk_set_prob([bad]),
            lambda bad=bad: model.pairwise_prob(0, bad),
            lambda bad=bad: model.pairwise_prob(bad, 0),
        ]
    for query in queries:
        with pytest.raises(DimensionError):
            query()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_answers_the_same_queries(family):
    model = FAMILIES[family]()
    methods = {name for name, attr in vars(type(model)).items() if callable(attr) and not name.startswith("_")}
    assert methods == {"perm_prob", "topk_set_prob", "pairwise_prob", "sample_many", "pick_rows", "support"}
    assert model.m == len(model.ranks) == 4
    for i, j in itertools.permutations(range(4), 2):
        assert abs(model.pairwise_prob(i, j) + model.pairwise_prob(j, i) - 1.0) <= 4.5e-16
    for x in range(4):
        expected = enumerate_event_prob(model, lambda r: r.order[0] == x)
        assert model.topk_set_prob({x}) == pytest.approx(expected, abs=1e-12)


class TestOrientedPairwise:
    def test_both_orientations_match_enumeration(self, rng):
        center = Ranking(tuple(rng.permutation(5)))
        model = MallowsModel(center, 0.8)
        support = mallows_support_oracle(center, 0.8)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                expected = math.fsum(p for r, p in support if r.position(i) < r.position(j))
                assert model.pairwise_prob(i, j) == pytest.approx(expected, abs=1e-12)

    def test_explicit_model(self):
        model = ExplicitModel(((R(0, 1, 2), 0.9), (R(1, 0, 2), 0.1)))
        assert model.pairwise_prob(0, 1) == pytest.approx(0.9)
        assert model.pairwise_prob(1, 0) == pytest.approx(0.1)
        with pytest.raises(DomainError):
            model.pairwise_prob(2, 2)


class TestEnumerationOracle:
    def test_trivial_event(self, m3_half):
        assert enumerate_event_prob(m3_half, lambda r: True) == pytest.approx(1.0)

    def test_first_item_event(self, m3_half):
        p = enumerate_event_prob(m3_half, lambda r: r.order[0] == 0)
        assert p == pytest.approx(4 / 7, abs=1e-12)

    def test_explicit_pair_event(self):
        model = ExplicitModel(((R(0, 1, 2), 0.9), (R(1, 0, 2), 0.1)))
        p = enumerate_event_prob(model, lambda r: r.position(0) < r.position(2))
        assert p == 1.0

    def test_capacity_cap(self):
        model = MallowsModel(Ranking.identity(9), 1.0)
        with pytest.raises(CapacityError):
            enumerate_event_prob(model, lambda r: True)
        # explicit models carry their own support and ignore the factorial cap
        big = ExplicitModel(((Ranking.identity(12), 1.0),))
        assert enumerate_event_prob(big, lambda r: True) == 1.0


class TestInversionMonotonicity:
    def test_swap_toward_center_raises_probability(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 7))
            phi = float(rng.uniform(0.05, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            kind = rng.integers(0, 2)
            if kind == 0:
                model = MallowsModel(center, phi)
            else:
                values = tuple(float(v) for v in np.sort(rng.normal(size=m))[::-1])
                model = PlackettLuceModel(values, float(rng.uniform(0.2, 2.0)))
                center = model.center
            r = Ranking(tuple(rng.permutation(m)))
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            if center.position(i) > center.position(j):
                i, j = j, i
            if r.position(i) < r.position(j):
                continue  # swap must be toward the center
            swapped = apply_swap(r, i, j)
            better, worse = model.perm_prob(swapped), model.perm_prob(r)
            if kind == 0 and phi == 0.0:
                assert better == pytest.approx(worse)
            else:
                assert better > worse - 1e-15


class TestMallowsLowerBounds:
    def test_best_of_set_bound_and_cumulative(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 7))
            phi = float(rng.uniform(0.0, 3.0))
            center = Ranking(tuple(rng.permutation(m)))
            model = MallowsModel(center, phi)
            k = int(rng.integers(1, m + 1))
            S = sorted(
                (int(x) for x in rng.choice(m, size=k, replace=False)),
                key=center.position,
            )
            support = mallows_support_oracle(center, phi)
            firsts = [
                math.fsum(
                    p for r, p in support if min(S, key=r.position) == x
                )
                for x in S
            ]
            assert firsts[0] >= 1.0 / row_z(k, phi) - 1e-12
            for s in range(1, k + 1):
                cumulative = math.fsum(firsts[:s])
                assert cumulative >= row_z(s, phi) / row_z(k, phi) - 1e-12
