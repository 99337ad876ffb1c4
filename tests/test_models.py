import decimal
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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
import shortlist
from shortlist import models
from shortlist.errors import CapacityError, DimensionError, DomainError
from shortlist.models import ENUMERATION_CAP, _insertion_rows, _logsumexp, k_menus, pairwise_matrix, row_z

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


def reference_insertion_rows(m: int, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The insertion rows at one accuracy by the (m, m) formula: tril(exp(-phi gaps)) / row_z, cumsum, 1 - gammas."""
    t = np.arange(m, dtype=float)
    gaps = np.tril(np.subtract.outer(t, t))
    with np.errstate(over="ignore"):
        probs = np.tril(np.exp(-phi * gaps))
    probs /= np.array([row_z(j, phi) for j in range(1, m + 1)])[:, None]
    gammas = np.cumsum(probs, axis=1)
    return probs, gammas, 1.0 - gammas


class TestInsertionTable:
    def test_two_slot_row(self):
        probs, _, _ = _insertion_rows(2, LN2)
        assert tuple(probs[1, :2]) == pytest.approx((1 / 3, 2 / 3), abs=1e-15)

    def test_first_row_trivial(self):
        probs, _, _ = _insertion_rows(3, 1.7)
        assert tuple(probs[0, :1]) == (1.0,)

    def test_uniform_rows_at_phi_zero(self):
        probs, _, _ = _insertion_rows(4, 0.0)
        for t in range(1, 5):
            assert tuple(probs[t - 1, :t]) == pytest.approx(tuple([1 / t] * t))

    def test_three_read_only_arrays(self):
        rows = _insertion_rows(5, 0.9)
        assert len(rows) == 3
        for array in rows:
            assert isinstance(array, np.ndarray) and array.shape == (5, 5) and not array.flags.writeable

    def test_one_exp_over_the_grid_has_the_bits_of_one_exp_per_step(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 40))
            phi = float(rng.choice([0.0, 700.0, 1e300, rng.uniform(0.0, 5.0), rng.exponential(20.0)]))
            want = np.zeros((m, m))
            for t in range(1, m + 1):
                with np.errstate(over="ignore"):
                    want[t - 1, :t] = np.exp(-phi * (t - np.arange(1, t + 1, dtype=float)))
                want[t - 1, :t] /= row_z(t, phi)
            assert _insertion_rows(m, phi)[0].tobytes() == want.tobytes()

    def test_a_grid_has_each_accuracys_per_accuracy_bits(self, rng):
        # one table for a whole grid against the (m, m) formula at each accuracy alone
        extremes = [0.0, 1e-300, 1e-9, 800.0, 1e300, 1e308]
        for _ in range(300):
            m = int(rng.integers(1, 41))
            phis = [float(rng.choice([rng.choice(extremes), rng.uniform(0.0, 5.0), rng.exponential(30.0)])) for _ in range(int(rng.integers(1, 21)))]
            phis = tuple(phis + [phis[int(rng.integers(len(phis)))] for _ in range(int(rng.integers(0, 3)))])
            want = [reference_insertion_rows(m, phi) for phi in phis]
            for t, step in enumerate(models._step_rows(m, phis)):
                probs = np.array([w[0][t] for w in want])
                gammas = np.array([w[1][t] for w in want])
                keeps = np.array([w[2][t] for w in want])
                expected = (probs, probs[:, ::-1], gammas[:, None, :-1], keeps[:, None])
                assert [a.tobytes() for a in step] == [a.tobytes() for a in expected]
            for phi, rows in zip(phis, want):
                assert [a.tobytes() for a in _insertion_rows(m, phi)] == [a.tobytes() for a in rows]

    def test_a_cold_grid_builds_no_single_accuracy_rows(self):
        models.clear_caches()
        before = _insertion_rows.cache_info()
        models._step_rows(9, (0.25, 0.5, 1.75))
        assert _insertion_rows.cache_info() == before

    def test_a_solo_pick_is_the_last_row_reversed_and_builds_no_table(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 41))
            phis = tuple(float(rng.choice([0.0, 1e-300, 1e-9, 800.0, 1e300, 1e308, rng.uniform(0.0, 5.0), rng.exponential(30.0)])) for _ in range(int(rng.integers(1, 6))))
            caches = _insertion_rows.cache_info(), models._step_rows.cache_info()
            rows = models._mallows_pick_rows(np.tile(np.arange(m, dtype=np.intp), (3, 1)), m, phis)
            assert (_insertion_rows.cache_info(), models._step_rows.cache_info()) == caches
            assert rows.shape == (len(phis), 3, m)
            for phi, got in zip(phis, rows):
                want = reference_insertion_rows(m, phi)[0][-1, ::-1].tobytes()
                assert [row.tobytes() for row in got] == [want] * 3

    def test_rows_sum_to_one_and_gamma_monotone(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 9))
            phi = float(rng.uniform(0.0, 3.0))
            probs, gammas, _ = _insertion_rows(m, phi)
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
            probs, _, _ = _insertion_rows(m, phi)
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

    @pytest.mark.parametrize("values, beta", [((1e308, 0.0), 0.5), ((1.0, 0.5, 0.0), 5e-324), ((-1e308, 0.0), 0.1)])
    def test_values_that_overflow_once_scaled_are_rejected(self, values, beta):
        with pytest.raises(DomainError, match="beta"):
            PlackettLuceModel(values, beta)

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


class TestPlackettLuceScalesOnce:
    """A Plackett-Luce model divides its values by beta once; every query reads those quotients."""

    @staticmethod
    def reference_topk(values, beta, items):
        """P[``items`` is the top set] from ``values[x] / beta``: each subset's log-normaliser in its own row."""
        u = [v / beta for v in values]

        def log_norm(taken):
            rest = np.array([[-np.inf if y in taken else u[y] for y in range(len(u))]])
            hi = rest.max(axis=1, keepdims=True)
            return float((hi + np.log(np.exp(rest - hi).sum(axis=1, keepdims=True)))[0, 0])

        f = {frozenset(): 1.0}
        for size in range(1, len(items) + 1):
            for T in map(frozenset, itertools.combinations(sorted(items), size)):
                f[T] = math.fsum(f[T - {x}] * math.exp(u[x] - log_norm(T - {x})) for x in sorted(T))
        return f[frozenset(items)]

    def test_no_per_call_scaling_is_left(self):
        assert not hasattr(PlackettLuceModel, "_scaled")

    @pytest.mark.parametrize("m", range(1, 7))
    def test_queries_have_the_bits_of_values_over_beta(self, m):
        rng = np.random.default_rng(400 + m)
        values = tuple(float(v) for v in rng.normal(0.0, 2.0, m))
        beta = float(rng.uniform(0.05, 3.0))
        model = PlackettLuceModel(values, beta)
        u = np.array([v / beta for v in values])
        assert model._scaled_values.tobytes() == (np.asarray(values) / beta).tobytes() == u.tobytes()
        for perm in itertools.permutations(range(m)):
            order = u[list(perm)]
            want = math.exp(sum(order[j] - _logsumexp(order[j:]) for j in range(m)))
            assert model.perm_prob(Ranking(perm)).hex() == want.hex()
        for k in range(1, m + 1):
            rows = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
            by_center = u[list(model.center.order)][rows]
            w = np.exp(by_center - by_center.max(axis=1, keepdims=True))
            assert model.pick_rows(rows).tobytes() == (w / w.sum(axis=1, keepdims=True)).tobytes()
            cold = PlackettLuceModel(values, beta)
            for items in rows.tolist():
                assert cold.topk_set_prob(items).hex() == self.reference_topk(values, beta, items).hex()


@pytest.mark.parametrize("m", range(1, 9))
def test_k_menus_is_the_intp_array_of_lexicographic_k_sets(m):
    for k in range(1, m + 1):
        menus = k_menus(m, k)
        assert isinstance(menus, np.ndarray) and menus.dtype == np.intp and menus.shape == (math.comb(m, k), k)
        assert menus.tolist() == [list(s) for s in itertools.combinations(range(m), k)]


def test_k_menus_is_one_read_only_array_per_menu_set_and_a_cached_size_is_no_refused_one():
    menus = k_menus(6, 2)
    assert k_menus(6, 2) is menus and k_menus(np.int64(6), np.int64(2)) is menus and not menus.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        menus[0, 0] = 5
    k_menus(6, 1)
    for k in (2.0, True, [2]):  # equal to a cached size, or unhashable, but not an integer
        with pytest.raises(DomainError, match=re.escape(f"menu size {k} out of range for m=6")):
            k_menus(6, k)


@pytest.mark.parametrize("m", [[6], 6.0, np.array(6), True, np.float64(6.0)], ids=["list", "float", "0-d array", "bool", "numpy float"])
def test_k_menus_refuses_an_item_count_that_is_not_an_integer(m):
    with pytest.raises(DomainError, match=re.escape(f"an item count must be an integer, got {m!r}")):
        k_menus(m, 1 if m is True else 2)


# a call for each registered cache that returns arrays: a cached array is handed
# to every later caller, so none may be writable
LIBRARY_CACHES = {
    models._menu_set: lambda f: f(6, 3),
    models._insertion_rows: lambda f: f(5, 0.7),
    models._step_rows: lambda f: f(5, (0.7, 1.3)),
    models._prefix_tree: lambda f: f(6, 3, k_menus(6, 3).tobytes()),
}


def _library_caches() -> dict:
    """Every lru_cache or functools.cache wrapper defined in a ``shortlist`` module, keyed "module.qualname"."""
    found = {}
    for info in pkgutil.iter_modules(shortlist.__path__):
        module = importlib.import_module(f"shortlist.{info.name}")
        for obj in vars(module).values():
            for f in (obj, *vars(obj).values()) if isinstance(obj, type) else (obj,):
                if hasattr(f, "cache_info") and f.__module__ == module.__name__:
                    found[f"{module.__name__}.{f.__qualname__}"] = f
    return found


def _arrays(result):
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, (tuple, list)):
        for x in result:
            yield from _arrays(x)


def test_every_library_cache_is_known_and_hands_out_read_only_arrays():
    assert _library_caches() == models._MEMOS
    for f, call in LIBRARY_CACHES.items():
        arrays = list(_arrays(call(f)))
        assert arrays and not any(a.flags.writeable for a in arrays), f.__qualname__


# one run of the library's cached paths on freshly built objects (the sushi and
# tension CLI, enumeration and branch and bound at m = 12, verify_uplift, a
# Plackett-Luce menu law, a seeded Monte Carlo pick) in a fresh interpreter,
# then again after clear_caches(): every output and every cache's cache_info()
# must agree, so a cleared library is a cold one
COLD_RUN = """
import io, json, sys, tempfile
from pathlib import Path
import numpy as np
from shortlist import cli, models
from shortlist.collab import joint_pick_from_menus, mc_joint_pick_dist
from shortlist.models import MallowsModel, PlackettLuceModel, model_menu_distribution
from shortlist.optimize import branch_and_bound_menu, enumerate_best_menu
from shortlist.rankings import AlgorithmPolicy, HumanType, Population, Ranking, ValueProfile, borda_values
from shortlist.welfare import verify_uplift

def run(tmp):
    out = {}
    for study, grid in (("sushi", "0.3,1.1"), ("tension", "0.4,1.7")):
        path = Path(tmp) / f"{study}.csv"
        assert cli.main(["experiment", study, "--phi-grid", grid, "--output", str(path)]) == 0
        out[study] = path.read_text()
    rng = np.random.default_rng(7)
    types = []
    for phi in (0.4, 0.9, 0.9):
        center = Ranking(tuple(rng.permutation(12).tolist()))
        values = ValueProfile(tuple(sorted(rng.uniform(0.0, 3.0, 12).tolist(), reverse=True)))
        types.append(HumanType(center, MallowsModel(center, phi), values, 1 / 3))
    pop = Population(tuple(types))
    for solve in (enumerate_best_menu, branch_and_bound_menu):
        result = solve(pop, 3)
        out[solve.__name__] = [result.menu, result.welfare.hex(), result.nodes, result.evaluations]
    report = verify_uplift(pop, AlgorithmPolicy(Ranking.identity(12), 0.8, 3))
    out["verify_uplift"] = repr(report)
    gt = Ranking.identity(7)
    human = HumanType(gt, MallowsModel(gt, 0.6), borda_values(7))
    curator = PlackettLuceModel((3.0, 2.5, 2.0, 1.0, 0.5, 0.2, 0.0), 0.9)
    dist = joint_pick_from_menus(human, model_menu_distribution(curator, 3))
    out["joint_pick_from_menus"] = {x: p.hex() for x, p in dist.items()}
    sampled = mc_joint_pick_dist(human, AlgorithmPolicy(gt, 0.5, 3), 1000, np.random.default_rng(3))
    out["mc_joint_pick_dist"] = {x: p.hex() for x, p in sampled.items()}
    out["caches"] = {name: tuple(f.cache_info()) for name, f in models._MEMOS.items()}
    return out

with tempfile.TemporaryDirectory() as tmp:
    fresh = run(tmp)
    models.clear_caches()
    cleared = run(tmp)
print(json.dumps([fresh, cleared]))
"""


def test_a_cleared_library_computes_as_a_fresh_interpreter_does():
    proc = subprocess.run([sys.executable, "-c", COLD_RUN], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(shortlist.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr
    fresh, cleared = json.loads(proc.stdout.splitlines()[-1])  # after the CLI's "wrote" lines
    assert fresh == cleared
    assert all(misses for _, misses, _, _ in fresh["caches"].values())  # the run reached every cache


class TestExplicitModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExplicitModel(((R(0, 1), 0.5), (R(1, 0), 0.6)))
        with pytest.raises(DomainError):
            ExplicitModel(((R(0, 1), 0.5), (R(0, 1), 0.5)))
        with pytest.raises(DimensionError):
            ExplicitModel(((R(0, 1), 0.5), (R(0, 1, 2), 0.5)))
        with pytest.raises(DomainError, match="explicit model needs a nonempty support"):
            ExplicitModel(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_probabilities_that_are_not_finite_and_positive(self, bad):
        with pytest.raises(DomainError, match="support probabilities must be finite and positive"):
            ExplicitModel(((R(0, 1, 2), bad), (R(1, 0, 2), 1.0)))

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


def test_plackett_luce_topk_set_prob_refuses_a_table_over_the_cap():
    # the subset DP holds (2^k - 1) x m cells: 2^16 x 30 is past MENU_ENUMERATION_CAP
    model = PlackettLuceModel(tuple(float(v) for v in range(30)), 1.0)
    assert 0.0 < model.topk_set_prob(range(12)) < 1.0
    with pytest.raises(CapacityError, match="top-16 set law"):
        model.topk_set_prob(range(16))


class TestPlackettLuceSubsetMemo:
    """``topk_set_prob`` keeps each subset's terms per model; a warm model answers with a cold model's bits."""

    @staticmethod
    def cold(model, items) -> str:
        return PlackettLuceModel(model.item_values, model.beta).topk_set_prob(items).hex()

    @staticmethod
    def reference(model, items) -> str:
        """The subset DP without a memo: every log-normaliser in one batch, then each f(S) in subset order."""
        items = sorted(items)
        k = len(items)
        u = np.asarray(model.item_values) / model.beta
        taken = np.zeros(((1 << k) - 1, model.m), dtype=bool)
        taken[:, items] = np.arange((1 << k) - 1)[:, None] >> np.arange(k) & 1
        rest = np.where(taken, -np.inf, u)
        hi = rest.max(axis=1, keepdims=True)
        log_norm = (hi + np.log(np.exp(rest - hi).sum(axis=1, keepdims=True)))[:, 0]
        f = [1.0] + [0.0] * ((1 << k) - 1)
        for S in range(1, 1 << k):
            f[S] = math.fsum(
                f[S ^ (1 << i)] * math.exp(u[x] - log_norm[S ^ (1 << i)]) for i, x in enumerate(items) if S >> i & 1
            )
        return f[-1].hex()

    @pytest.mark.parametrize("m", range(2, 11))
    def test_warm_law_in_any_order_equals_cold_queries(self, m):
        rng = np.random.default_rng(m)
        model = PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, m)), float(rng.uniform(0.05, 3.0)))
        for k in rng.permutation(np.arange(1, m + 1)).tolist():
            sets = list(itertools.combinations(range(m), k))
            want = [self.cold(model, s) for s in sets]
            assert want == [self.reference(model, s) for s in sets]
            shuffled = rng.permutation(len(sets)).tolist()
            got = {i: model.topk_set_prob(sets[i]).hex() for i in shuffled}
            assert [got[i] for i in range(len(sets))] == want
            law = model_menu_distribution(model, k)
            assert [p.hex() for p in law.values()] == want

    def test_single_set_after_a_law_equals_a_cold_query(self, rng):
        model = PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, 9)), 0.4)
        model_menu_distribution(model, 3)
        for items in ((0, 4, 8), (1, 2, 5, 7), (0, 1, 2, 3, 4, 5), tuple(range(9))):
            assert model.topk_set_prob(items).hex() == self.cold(model, items)

    def test_memo_is_not_part_of_equality_or_hash(self):
        warm, fresh = PlackettLuceModel((1.0, 0.0, -1.0), 1.0), PlackettLuceModel((1.0, 0.0, -1.0), 1.0)
        model_menu_distribution(warm, 2)
        assert warm == fresh and hash(warm) == hash(fresh)
        assert "_subsets" not in repr(warm)

    def test_cap_fires_on_a_warm_model(self):
        model = PlackettLuceModel(tuple(float(v) for v in range(30)), 1.0)
        model.topk_set_prob(range(12))
        with pytest.raises(CapacityError, match="top-16 set law"):
            model.topk_set_prob(range(16))
        with pytest.raises(CapacityError, match="top-16 set law"):
            model.topk_set_prob(range(14, 30))

    @staticmethod
    def random_model(rng, m):
        return PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, m)), float(rng.uniform(0.05, 3.0)))

    def assert_law_is_the_reference(self, model, menus):
        got = [p.hex() for p in model.topk_law(menus).tolist()]
        assert got == [self.reference(model, menu) for menu in np.asarray(menus).tolist()]

    @pytest.mark.parametrize("m", range(2, 10))
    def test_law_over_k_menus_has_the_references_bits(self, m):
        rng = np.random.default_rng(100 + m)
        for k in range(1, m + 1):
            self.assert_law_is_the_reference(self.random_model(rng, m), k_menus(m, k))

    @pytest.mark.parametrize("m", [4, 7, 10])
    def test_law_over_a_shuffled_part_of_the_menus_has_the_references_bits(self, m):
        rng = np.random.default_rng(200 + m)
        for k in range(1, m):
            menus = k_menus(m, k)
            part = menus[rng.permutation(len(menus))[: max(1, len(menus) // 3)]]
            # each menu's items in a random order too
            self.assert_law_is_the_reference(self.random_model(rng, m), rng.permuted(part, axis=1))

    def test_law_after_single_queries_has_the_references_bits(self, rng):
        model = self.random_model(rng, 9)
        for items in ((3,), (0, 4), (8, 1, 5), (0, 2, 4, 6), tuple(range(9))):
            model.topk_set_prob(items)
        for k in (2, 3, 4, 5):
            self.assert_law_is_the_reference(model, k_menus(9, k))

    def test_normalisers_in_several_blocks_have_the_references_bits(self, monkeypatch, rng):
        # one 5-item row per 5-float block, so the 6 normalisers of the 2-menus of 5 items take 6 blocks,
        # and the 93 of the 4-menus of 8 items take 12 blocks of 64 floats
        monkeypatch.setattr(models, "DP_STATE_FLOATS", 5)
        self.assert_law_is_the_reference(self.random_model(rng, 5), k_menus(5, 2))
        monkeypatch.setattr(models, "DP_STATE_FLOATS", 64)
        model = self.random_model(rng, 8)
        self.assert_law_is_the_reference(model, k_menus(8, 4))
        assert model.topk_set_prob(range(8)).hex() == self.reference(model, range(8))

    @pytest.mark.parametrize("k", [2, 3])
    def test_keys_past_63_bits_have_the_references_bits(self, rng, k):
        model = self.random_model(rng, 70)
        menus = k_menus(70, k)[:: 7 if k == 2 else 97]
        assert menus.max() > 63
        self.assert_law_is_the_reference(model, menus)
        assert max(model._subsets[1]).bit_length() > 64


class TestSharedSubsetPass:
    """``_topk_laws`` runs one ``_subset_pass`` for several Plackett-Luce models: each column has that model's cold bits."""

    @staticmethod
    def grid(rng, m, decays=(0.0, 30.0, 45.0), scales=(0.1, 1.0)):
        decays = (*decays, float(rng.uniform(0.05, 6.0)))
        scales = (*scales, float(rng.uniform(0.1, 1.0)))
        return [PlackettLuceModel(tuple(math.exp(-d * j) for j in range(m)), s) for d in decays for s in scales]

    @staticmethod
    def cold_law(pl, menus) -> list[str]:
        return [p.hex() for p in PlackettLuceModel(pl.item_values, pl.beta).topk_law(menus).tolist()]

    def assert_columns_are_cold_laws(self, pls, menus):
        laws = models._topk_laws(pls, menus)
        assert laws.shape == (len(menus), len(pls))
        for column, pl in zip(laws.T.tolist(), pls):
            assert [p.hex() for p in column] == self.cold_law(pl, menus)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_cold_columns_have_each_models_own_bits(self, m):
        rng = np.random.default_rng(400 + m)
        for k in range(1, m + 1):
            pls = self.grid(rng, m)
            self.assert_columns_are_cold_laws(pls, k_menus(m, k))
            for pl in pls:  # and every memo holds what a one-model pass leaves
                alone = PlackettLuceModel(pl.item_values, pl.beta)
                alone.topk_law(k_menus(m, k))
                assert [{S: p.hex() for S, p in memo.items()} for memo in pl._subsets] == [
                    {S: p.hex() for S, p in memo.items()} for memo in alone._subsets
                ]

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_warm_and_partly_warm_memos_keep_the_bits(self, m):
        rng = np.random.default_rng(500 + m)
        for k in range(1, m + 1):
            menus = k_menus(m, k)
            pls = self.grid(rng, m)
            self.assert_columns_are_cold_laws(pls, menus)
            self.assert_columns_are_cold_laws(pls, menus)  # every memo warm
            pls = self.grid(rng, m)
            pls[1].topk_law(menus)  # one model queried first
            pls[-1].topk_set_prob(range(m))
            self.assert_columns_are_cold_laws(pls, menus)
            pls = self.grid(rng, m)
            part = menus[rng.permutation(len(menus))[: max(1, len(menus) // 3)]]
            models._topk_laws(pls[::2], part)  # half the models, a third of the menus
            self.assert_columns_are_cold_laws(pls, rng.permuted(menus, axis=1))

    @pytest.mark.parametrize("floats", [5, 64, 1000])
    def test_batches_cut_small_keep_the_bits(self, monkeypatch, floats):
        rng = np.random.default_rng(floats)
        monkeypatch.setattr(models, "DP_STATE_FLOATS", floats)
        for m, k in ((5, 2), (7, 3), (8, 4)):
            self.assert_columns_are_cold_laws(self.grid(rng, m), k_menus(m, k))

    def test_keys_past_63_bits_keep_the_bits(self, rng):
        menus = k_menus(70, 2)[::7]
        assert menus.max() > 63
        self.assert_columns_are_cold_laws([TestPlackettLuceSubsetMemo.random_model(rng, 70) for _ in range(3)], menus)

    def test_the_cap_fires_for_a_grid(self):
        pls = [PlackettLuceModel(tuple(float(v) for v in range(30)), beta) for beta in (0.5, 1.0)]
        with pytest.raises(CapacityError, match="top-16 set law"):
            models._topk_laws(pls, np.arange(16)[None])


def _non_integer_item_calls():
    from shortlist import AlgorithmPolicy, HumanType, borda_values, choice_dist, choice_table, mc_joint_pick_dist

    mallows = MallowsModel(R(0, 1, 2), LN2)
    h = HumanType(R(0, 1, 2), mallows, borda_values(3), 1.0)
    return {
        "Ranking": lambda: Ranking((1.5, 0.2, 2)),
        "Ranking.position": lambda: R(0, 1, 2).position(1.5),
        "choice_table": lambda: choice_table(mallows, [[0.5, 1.7]]),
        "choice_dist": lambda: choice_dist(mallows, [0.5, 1]),
        "pairwise_prob": lambda: mallows.pairwise_prob(0.5, 1),
        "pl_topk_set_prob": lambda: PlackettLuceModel((1.0, 0.0, -1.0), 1.0).topk_set_prob({0.5, 1}),
        "mc_joint_pick_dist": lambda: mc_joint_pick_dist(
            h, AlgorithmPolicy(R(0, 1, 2), 1.0, 2), 10.5, np.random.default_rng(0)
        ),
        "choice_dist_bool": lambda: choice_dist(mallows, [True, False]),
        "Ranking_bool": lambda: Ranking((True, False, 2)),
        "mc_joint_pick_dist_bool": lambda: mc_joint_pick_dist(
            h, AlgorithmPolicy(R(0, 1, 2), 1.0, 2), True, np.random.default_rng(0)
        ),
    }


@pytest.mark.parametrize("name", list(_non_integer_item_calls()))
def test_every_entry_point_refuses_a_non_integer_item(name):
    with pytest.raises(DomainError, match="integer|unknown item 1.5"):
        _non_integer_item_calls()[name]()


def test_numpy_integers_are_items():
    from shortlist import choice_dist, choice_table

    model = MallowsModel(Ranking(np.array([2, 0, 1])), LN2)
    assert model.center.order == (2, 0, 1)
    assert model.center.position(np.int64(2)) == 0
    menu = np.array([[0, 2]], dtype=np.int32)
    assert choice_table(model, menu)[0].tolist() == [choice_dist(model, np.array([2, 0]))[x] for x in (0, 2)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_answers_the_same_queries(family):
    model = FAMILIES[family]()
    methods = {name for name, attr in vars(type(model)).items() if callable(attr) and not name.startswith("_")}
    assert methods == {"perm_prob", "topk_set_prob", "topk_law", "pairwise_prob", "sample_many", "pick_rows", "support"}
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


def _per_pair_matrix(model) -> np.ndarray:
    """``pairwise_matrix``'s contract as a loop: ``pairwise_prob(i, j)`` above the diagonal, ``1 - p`` below, 0 on it."""
    out = np.zeros((model.m, model.m))
    for i, j in itertools.combinations(range(model.m), 2):
        p = model.pairwise_prob(i, j)
        out[i, j] = p
        out[j, i] = 1.0 - p
    return out


class TestPairwiseMatrix:
    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("phi", [0.0, 1e-9, "uniform", 50.0, 800.0])
    def test_mallows_matrix_is_the_per_pair_loop_byte_for_byte(self, m, phi):
        rng = np.random.default_rng(m)
        for _ in range(4):
            accuracy = float(rng.uniform(0.0, 3.0)) if phi == "uniform" else phi
            model = MallowsModel(Ranking(tuple(int(x) for x in rng.permutation(m))), accuracy)
            assert pairwise_matrix(model).tobytes() == _per_pair_matrix(model).tobytes()

    @pytest.mark.parametrize("m", [2, 4, 7, 12])
    def test_other_families_are_the_per_pair_loop_byte_for_byte(self, m):
        rng = np.random.default_rng(m)
        pl = PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, m)), float(rng.uniform(0.2, 2.0)))
        orders = {tuple(int(x) for x in rng.permutation(m)) for _ in range(5)}
        probs = rng.uniform(0.1, 1.0, len(orders))
        explicit = ExplicitModel(tuple((Ranking(r), float(p)) for r, p in zip(sorted(orders), probs / probs.sum())))
        for model in (pl, explicit):
            assert pairwise_matrix(model).tobytes() == _per_pair_matrix(model).tobytes()


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


class TestTopkLaw:
    """``topk_law`` has the bits of one ``topk_set_prob`` call per menu, and ``model_menu_distribution`` is its dict view."""

    @staticmethod
    def assert_law_is_per_menu(model, k):
        sets = list(itertools.combinations(range(model.m), k))
        want = [model.topk_set_prob(s).hex() for s in sets]
        menus = np.array(sets, dtype=np.intp)
        assert [p.hex() for p in model.topk_law(menus).tolist()] == want
        # rows in any order and with items in any order
        shuffled = np.random.default_rng(k).permutation(len(sets))
        flipped = menus[shuffled, ::-1]
        assert [p.hex() for p in model.topk_law(flipped).tolist()] == [want[i] for i in shuffled]
        law = model_menu_distribution(model, k)
        assert list(law) == [frozenset(s) for s in sets]
        assert [p.hex() for p in law.values()] == want

    @pytest.mark.parametrize("m", range(1, 11))
    def test_mallows(self, m):
        rng = np.random.default_rng(100 + m)
        for phi in (0.0, float(rng.uniform(0.0, 4.0)), 700.0, 1e-9):
            model = MallowsModel(Ranking(tuple(int(x) for x in rng.permutation(m))), phi)
            for k in range(1, m + 1):
                self.assert_law_is_per_menu(model, k)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_explicit(self, m):
        rng = np.random.default_rng(200 + m)
        perms = sorted({tuple(int(x) for x in rng.permutation(m)) for _ in range(8)})
        weights = rng.dirichlet(np.ones(len(perms)))
        model = ExplicitModel(tuple((Ranking(p), float(w)) for p, w in zip(perms, weights)))
        for k in range(1, m + 1):
            self.assert_law_is_per_menu(model, k)
            for s in itertools.combinations(range(m), k):  # the support sum the explicit law is
                want = math.fsum(p for r, p in model.support() if set(r.order[:k]) == set(s))
                assert model.topk_set_prob(s).hex() == want.hex()

    @pytest.mark.parametrize("m", range(1, 8))
    def test_plackett_luce(self, m):
        rng = np.random.default_rng(300 + m)
        model = PlackettLuceModel(tuple(float(v) for v in rng.normal(0.0, 2.0, m)), float(rng.uniform(0.05, 3.0)))
        for k in range(1, m + 1):
            self.assert_law_is_per_menu(model, k)

    def test_mallows_calls_topk_set_prob_once_per_position_sum(self, monkeypatch):
        m, k = 9, 4
        model = MallowsModel(Ranking(tuple(range(m))[::-1]), 0.8)
        calls = []
        original = MallowsModel.topk_set_prob
        monkeypatch.setattr(
            MallowsModel, "topk_set_prob", lambda self, items: calls.append(items) or original(self, items)
        )
        law = model.topk_law(np.array(list(itertools.combinations(range(m), k)), dtype=np.intp))
        assert len(law) == math.comb(m, k)
        assert len(calls) == len({sum(model.center.positions[x] for x in items) for items in calls}) == k * (m - k) + 1
