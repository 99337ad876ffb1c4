import itertools
import math

import numpy as np
import pytest

from conftest import make_ranking as R
from shortlist import (
    AlgorithmPolicy,
    ExplicitModel,
    HumanType,
    MallowsModel,
    PlackettLuceModel,
    Ranking,
    ValueProfile,
    apply_swap,
    borda_values,
    check_mallows_harmful,
    check_mallows_helpful,
    check_pl_harmful,
    check_pl_helpful,
    derive_partial_order,
    joint_utility,
    psi,
    solo_utility,
    swap_effect,
    top_item_values,
)
from shortlist import analysis
from shortlist.errors import DimensionError, DomainError
from shortlist.models import policy_ranking_model

LN2 = math.log(2)


def mallows_human(gt, phi, values):
    return HumanType(gt, MallowsModel(gt, phi), values, 1.0)


def pl_human(values):
    """A Plackett-Luce human (beta 1) whose ground truth is the identity, with values by rank."""
    return HumanType(Ranking.identity(len(values)), PlackettLuceModel(values, 1.0), ValueProfile(values), 1.0)


def hundredfold_top_human(top_value=100.0):
    return mallows_human(
        Ranking.identity(4), 1.0, ValueProfile((top_value, 2.0, 1.0, 1.0))
    )


class TestSwapEffect:
    def test_sign_pattern_random_instances(self, rng):
        # demoting the item the human likes better: its pick probability can
        # only fall, everyone else's can only rise, and the changes cancel;
        # when the demoted item is the human-worse one the pattern mirrors
        for _ in range(60):
            m = int(rng.integers(3, 6))
            k = int(rng.integers(2, min(3, m - 1) + 1))
            gt = Ranking(tuple(rng.permutation(m)))
            h = mallows_human(gt, float(rng.uniform(0.05, 3.0)), borda_values(m))
            center = Ranking(tuple(rng.permutation(m)))
            a = AlgorithmPolicy(center, float(rng.uniform(0.05, 3.0)), k)
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            if center.position(i) > center.position(j):
                i, j = j, i
            report = swap_effect(h, a, i, j)
            loser = i if gt.position(i) < gt.position(j) else j
            sign = 1.0 if loser == i else -1.0
            assert sign * report.delta(loser) <= 1e-12
            for x in range(m):
                if x != loser:
                    assert sign * report.delta(x) >= -1e-12
            assert math.fsum(report.delta(x) for x in range(m)) == pytest.approx(0.0, abs=1e-9)

    def test_least_valued_swap_helps(self):
        h = mallows_human(Ranking.identity(3), LN2, top_item_values(3))
        a = AlgorithmPolicy(Ranking.identity(3), LN2, 2)
        report = swap_effect(h, a, 1, 2)  # both zero-valued
        assert report.utility_delta >= -1e-12

    def test_top_item_swap_hurts(self):
        h = mallows_human(Ranking.identity(3), LN2, top_item_values(3))
        a = AlgorithmPolicy(Ranking.identity(3), LN2, 2)
        for other in (1, 2):
            report = swap_effect(h, a, 0, other)
            assert report.utility_delta <= 1e-12

    def test_indistinguishable_items_no_effect(self):
        # this human is 50/50 on the swapped pair and never places either
        # above anything else, so the swap moves no probability at all
        gt = R(0, 1, 2)
        noise = ExplicitModel(((R(0, 1, 2), 0.5), (R(0, 2, 1), 0.5)))
        h = HumanType(gt, noise, ValueProfile((1.0, 0.5, 0.5)), 1.0)
        a = AlgorithmPolicy(Ranking.identity(3), 1.0, 2)
        report = swap_effect(h, a, 1, 2)
        for x in range(3):
            assert report.delta(x) == pytest.approx(0.0, abs=1e-12)
        assert report.utility_delta == pytest.approx(0.0, abs=1e-12)

    def test_equal_values_make_swaps_utility_neutral(self):
        # a uniform human still picks the demoted item less often, but with
        # tied values the probability shuffle cannot move expected utility
        h = mallows_human(Ranking.identity(3), 0.0, ValueProfile((1.0, 0.3, 0.3)))
        a = AlgorithmPolicy(Ranking.identity(3), 1.0, 2)
        report = swap_effect(h, a, 1, 2)
        assert report.delta(1) < 0 < report.delta(2)
        assert report.utility_delta == pytest.approx(0.0, abs=1e-12)

    def test_orientation_enforced(self):
        h = mallows_human(Ranking.identity(3), 1.0, top_item_values(3))
        a = AlgorithmPolicy(Ranking.identity(3), 1.0, 2)
        with pytest.raises(DomainError):
            swap_effect(h, a, 2, 0)


class TestPsi:
    def test_pinned_value(self):
        a = MallowsModel(Ranking.identity(4), 1.0)
        assert psi(a, 1, 2, 0) == pytest.approx(0.37038616779461636, abs=1e-12)

    def test_uniform_algorithm_gives_zero(self):
        a = MallowsModel(Ranking.identity(4), 0.0)
        assert psi(a, 1, 2, 0) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_mallows_and_pl(self, rng):
        for _ in range(100):
            m = int(rng.integers(3, 7))
            if rng.random() < 0.5:
                center = Ranking(tuple(rng.permutation(m)))
                alg = MallowsModel(center, float(rng.uniform(0.0, 3.0)))
            else:
                values = tuple(float(v) for v in np.sort(rng.normal(size=m))[::-1])
                alg = PlackettLuceModel(values, float(rng.uniform(0.2, 2.0)))
                center = alg.center
            items = [int(x) for x in rng.choice(m, size=3, replace=False)]
            i, j, r = items
            if center.position(i) > center.position(j):
                i, j = j, i
            assert psi(alg, i, j, r) >= -1e-12

    def test_orientation(self):
        a = MallowsModel(Ranking.identity(4), 1.0)
        with pytest.raises(DomainError):
            psi(a, 2, 1, 0)


class TestMallowsHarmful:
    @pytest.mark.parametrize("phi_h", ["x", "1.5", True, None])
    def test_accuracy_must_be_a_number(self, phi_h):
        with pytest.raises(DomainError, match="phi_h must be a nonnegative finite number"):
            check_mallows_harmful(ValueProfile((1.0, 0.9, 0.5, 0.0)), phi_h, 2, 3)

    @pytest.mark.parametrize("ranks", [(1.5, 2), (1, 2.0), (True, 2)], ids=["float-i", "float-j", "bool-i"])
    def test_ranks_must_be_integers(self, ranks):
        # a float rank would index the values, and True would be read as rank 1
        with pytest.raises(DomainError, match="integer ranks"):
            check_mallows_harmful(ValueProfile((3.0, 2.0, 1.0)), 1.0, *ranks)

    def test_near_top_item_holds(self):
        # x_i nearly top valued, adjacent swap: demoting it must be harmful
        verdict = check_mallows_harmful(ValueProfile((1.0, 0.9, 0.5, 0.0)), 1.0, 2, 3)
        assert verdict.holds
        assert verdict.lhs == pytest.approx(0.1)
        assert verdict.rhs == pytest.approx(math.exp(-1) * 0.5, abs=1e-12)

    def test_huge_value_gap_fails(self):
        values = ValueProfile((100.0, 0.0, 0.0, 0.0))
        verdict = check_mallows_harmful(values, 1.0, 2, 3)
        assert not verdict.holds and verdict.lhs == 100.0

    def test_gap_widens_exponent(self):
        # with the same value gap, a wider rank gap shrinks the threshold
        values = ValueProfile((1.0, 0.98, 0.9, 0.9))
        v_adjacent = check_mallows_harmful(values, 1.0, 2, 3)
        v_spread = check_mallows_harmful(values, 1.0, 2, 4)
        assert v_adjacent.rhs == pytest.approx(math.exp(-1) * 0.1, abs=1e-12)
        assert v_spread.rhs == pytest.approx(math.exp(-3) * 0.1, abs=1e-12)
        assert v_adjacent.rhs > v_spread.rhs

    def test_phi_zero_not_applicable(self):
        verdict = check_mallows_harmful(ValueProfile((1.0, 0.5, 0.0)), 0.0, 1, 2)
        assert not verdict.applicable

    def test_guarantee_on_concrete_instances(self, rng):
        # whenever the condition holds, the swap is exactly (weakly) harmful
        hits = 0
        for _ in range(200):
            m = int(rng.integers(3, 6))
            vals = tuple(sorted(rng.uniform(0, 1, size=m), reverse=True))
            phi_h = float(rng.uniform(0.1, 2.5))
            ranks = sorted(int(x) for x in rng.choice(np.arange(1, m + 1), size=2, replace=False))
            rank_i, rank_j = ranks
            verdict = check_mallows_harmful(ValueProfile(vals), phi_h, rank_i, rank_j)
            if not verdict.holds:
                continue
            hits += 1
            gt = Ranking.identity(m)
            h = mallows_human(gt, phi_h, ValueProfile(vals))
            a = AlgorithmPolicy(gt, float(rng.uniform(0.1, 2.5)), 2)
            report = swap_effect(h, a, rank_i - 1, rank_j - 1)
            assert report.utility_delta <= 1e-10
        assert hits > 10  # the generator must actually exercise the guarantee


class TestMallowsHelpful:
    def test_refuses_an_i_that_is_not_human_better_than_j(self):
        with pytest.raises(DomainError, match="item i must be human-better than item j"):
            check_mallows_helpful(hundredfold_top_human(), MallowsModel(Ranking.identity(4), 1.0), 2, 1)

    def test_hundredfold_worked_example(self):
        h = hundredfold_top_human()
        a = AlgorithmPolicy(Ranking.identity(4), 1.0, 2)
        verdict = check_mallows_helpful(h, policy_ranking_model(a), 1, 2)
        assert verdict.holds
        assert verdict.lhs == pytest.approx(50.0)
        assert verdict.witness == 1
        assert verdict.rhs <= math.exp(3) / (1 - math.exp(-1)) + 1e-9

    def test_guarantee_via_enumeration(self):
        h = hundredfold_top_human()
        a1 = AlgorithmPolicy(Ranking.identity(4), 1.0, 2)
        a2 = AlgorithmPolicy(R(0, 2, 1, 3), 1.0, 2)
        assert joint_utility(h, a2) > joint_utility(h, a1)

    def test_small_top_value_fails(self):
        h = hundredfold_top_human(top_value=10.0)
        a = AlgorithmPolicy(Ranking.identity(4), 1.0, 2)
        verdict = check_mallows_helpful(h, policy_ranking_model(a), 1, 2)
        assert not verdict.holds
        assert verdict.lhs == pytest.approx(5.0)

    def test_top_item_not_applicable(self):
        h = hundredfold_top_human()
        a = AlgorithmPolicy(Ranking.identity(4), 1.0, 2)
        verdict = check_mallows_helpful(h, policy_ranking_model(a), 0, 1)
        assert not verdict.applicable

    def test_zero_value_not_applicable(self):
        h = mallows_human(Ranking.identity(4), 1.0, top_item_values(4))
        a = AlgorithmPolicy(Ranking.identity(4), 1.0, 2)
        verdict = check_mallows_helpful(h, policy_ranking_model(a), 1, 2)
        assert not verdict.applicable


class TestPlHarmful:
    @pytest.mark.parametrize("beta", ["x", "1.5", True, None])
    def test_scale_must_be_a_number(self, beta):
        with pytest.raises(DomainError, match="beta must be a positive finite number"):
            check_pl_harmful(ValueProfile((1.0, 0.5, 0.0)), beta, 3)

    @pytest.mark.parametrize("rank_j", [2.0, 2.5, True])
    def test_rank_must_be_an_integer(self, rank_j):
        with pytest.raises(DomainError, match="integer rank"):
            check_pl_harmful(ValueProfile((3.0, 2.0, 1.0)), 1.0, rank_j)

    def test_unit_gap_holds(self):
        verdict = check_pl_harmful(ValueProfile((1.0, 0.5, 0.0)), 1.0, 3)
        assert verdict.holds and verdict.lhs == 1.0 and verdict.rhs == 1.27

    def test_two_beta_gap_fails(self):
        verdict = check_pl_harmful(ValueProfile((2.0, 0.0)), 1.0, 2)
        assert not verdict.holds

    def test_boundary_inclusive(self):
        verdict = check_pl_harmful(ValueProfile((1.27, 0.0)), 1.0, 2)
        assert verdict.holds


class TestPlHelpful:
    def test_refuses_a_mallows_human(self):
        with pytest.raises(DomainError, match="human noise model must be Plackett-Luce"):
            check_pl_helpful(hundredfold_top_human(), MallowsModel(Ranking.identity(4), 1.0), 1, 2)

    def test_dominant_top_value_instance(self):
        # the 100-value item dominates every menu, so the psi weights for
        # menus that exclude it are vanishing and the inequality holds; the
        # swap is then (weakly) helpful, though numerically a dead heat
        h = pl_human((100.0, 2.0, 1.0, 1.0))
        alg = PlackettLuceModel((100.0, 2.0, 1.0, 1.0), 1.0)
        verdict = check_pl_helpful(h, alg, 1, 2)
        assert verdict.applicable and verdict.holds
        assert verdict.lhs == pytest.approx(50.0)
        u_aligned = _pl_utility(h, (100.0, 2.0, 1.0, 1.0))
        u_swapped = _pl_utility(h, (100.0, 1.0, 2.0, 1.0))
        assert u_swapped >= u_aligned - 1e-12

    def test_moderate_values_hold_with_strict_gain(self):
        h = pl_human((8.0, 1.0, 0.5, 0.25))
        alg = PlackettLuceModel((8.0, 1.0, 0.5, 0.25), 1.0)
        verdict = check_pl_helpful(h, alg, 1, 2)
        assert verdict.holds and verdict.witness == 1
        u_aligned = _pl_utility(h, (8.0, 1.0, 0.5, 0.25))
        u_swapped = _pl_utility(h, (8.0, 0.5, 1.0, 0.25))
        assert u_swapped > u_aligned

    def test_top_item_not_applicable(self):
        h = pl_human((3.0, 1.0, 0.0))
        alg = PlackettLuceModel((3.0, 1.0, 0.0), 1.0)
        verdict = check_pl_helpful(h, alg, 0, 1)
        assert not verdict.applicable

    def test_uniform_algorithm_rhs_infinite(self):
        h = pl_human((4.0, 2.0, 1.0, 0.5))
        alg = PlackettLuceModel((1.0, 1.0, 1.0, 1.0), 1.0)
        verdict = check_pl_helpful(h, alg, 1, 2)
        assert not verdict.holds
        assert verdict.rhs == math.inf

    def test_value_gap_past_the_exp_range_gives_a_verdict(self):
        # (v_1 - v_i) / beta = 998 is past where exp overflows (~709); the
        # rank-1 item's psi weight underflows to 0, so no witness holds
        h = pl_human((1000.0, 2.0, 1.0, 0.5))
        verdict = check_pl_helpful(h, policy_ranking_model(AlgorithmPolicy(Ranking.identity(4), 1.0, 2)), 1, 2)
        assert verdict.applicable and not verdict.holds
        assert verdict.witness == 1
        assert verdict.lhs == 500.0 and verdict.rhs == math.inf


class TestHelpfulWitness:
    """Both helpful checkers against their inequality, recomputed from psi."""

    @staticmethod
    def _sides(h, a, i, j, w):
        """(lhs, rhs) of the checker's inequality at witness rank ``w``."""
        rank = {x: h.ground_truth.position(x) + 1 for x in range(h.m)}
        v = {x: h.value_of(x) for x in range(h.m)}
        others = [r for r in range(h.m) if r not in (i, j)]
        p = {r: psi(a, i, j, r) for r in others}
        if isinstance(h.noise, MallowsModel):
            phi = h.noise.phi
            num = sum(p.values())
            den = sum(p[r] * math.exp(-phi * (rank[j] - rank[r] + 1)) for r in others if rank[r] <= w)
            scale = 1.0 / (1.0 - math.exp(-phi * (rank[j] - rank[i] + 1)))
        else:
            beta = h.noise.beta
            weight = {r: p[r] / (math.exp((v[r] - v[i]) / beta) + 1.0) for r in others}
            num = sum(weight.values())
            den = sum(weight[r] for r in others if rank[r] <= w)
            gap = 1.0 - math.exp(-(v[i] - v[j]) / beta)
            scale = 2.0 / gap if gap > 0 else math.inf
        lhs = h.values[w - 1] / v[i]
        return lhs, (num / den * scale if den > 0 else math.inf)

    @pytest.mark.parametrize("family", ["mallows", "pl"])
    def test_witness_sides_match_psi(self, rng, family):
        checked = held = 0
        for _ in range(40):
            m = int(rng.integers(4, 7))
            gt = Ranking(tuple(int(x) for x in rng.permutation(m)))
            # spread over three decades, so that some pairs meet the condition
            values = ValueProfile(tuple(sorted(10.0 ** rng.uniform(-1.0, 2.0, m), reverse=True)))
            center = Ranking(tuple(int(x) for x in rng.permutation(m)))
            if family == "mallows":
                h = mallows_human(gt, float(rng.uniform(0.2, 2.0)), values)
                a = policy_ranking_model(AlgorithmPolicy(center, float(rng.uniform(0.2, 2.0)), 2))
                check = check_mallows_helpful
            else:
                beta = float(rng.uniform(0.5, 3.0))
                item_values = tuple(values[gt.position(x)] for x in range(m))
                h = HumanType(gt, PlackettLuceModel(item_values, beta), values, 1.0)
                a = PlackettLuceModel(tuple(float(x) for x in rng.uniform(0.0, 5.0, m)), 1.0)
                check = check_pl_helpful
            for i in range(m):
                for j in range(m):
                    if gt.position(i) >= gt.position(j) or a.center.position(i) >= a.center.position(j):
                        continue
                    verdict = check(h, a, i, j)
                    if not verdict.applicable:
                        assert gt.position(i) == 0 or values[gt.position(i)] == 0
                        continue
                    checked += 1
                    held += verdict.holds
                    lhs, rhs = self._sides(h, a, i, j, verdict.witness)
                    assert verdict.lhs == pytest.approx(lhs, rel=1e-12)
                    assert verdict.rhs == pytest.approx(rhs, rel=1e-9)
                    assert verdict.holds == (rhs != math.inf and lhs >= rhs)
                    # the reported witness is the first that holds, else rank 1
                    for w in range(1, verdict.witness):
                        earlier_lhs, earlier_rhs = self._sides(h, a, i, j, w)
                        assert earlier_rhs == math.inf or earlier_lhs < earlier_rhs
                    if not verdict.holds:
                        assert verdict.witness == 1
        assert checked > 100 and 0 < held < checked

    @pytest.mark.parametrize("m_h, m_a", [(3, 4), (4, 3)])
    def test_curator_over_another_item_universe_is_refused(self, monkeypatch, m_h, m_a):
        monkeypatch.setattr(analysis, "psi", lambda *args: pytest.fail("psi was computed"))
        values = (100.0, 2.0, 1.0, 1.0)[:m_h]
        mallows = mallows_human(Ranking.identity(m_h), 1.0, ValueProfile(values))
        for check, h, a in (
            (check_mallows_helpful, mallows, MallowsModel(Ranking.identity(m_a), 1.0)),
            (check_pl_helpful, pl_human(values), policy_ranking_model(AlgorithmPolicy(Ranking.identity(m_a), 1.0, 2))),
            (check_pl_helpful, pl_human(values), PlackettLuceModel((3.0, 2.0, 1.0, 0.0)[:m_a], 1.0)),
        ):
            with pytest.raises(DimensionError, match="different item universes: "):
                check(h, a, 1, 2)

    @pytest.mark.parametrize("entry", ["psi", "mallows", "pl"])
    def test_a_policy_in_place_of_its_ranking_model_is_refused(self, entry):
        # the top item is human-best, so the checkers would answer "not applicable" without psi
        policy = AlgorithmPolicy(Ranking.identity(4), 1.0, 2)
        calls = {
            "psi": lambda i, j: psi(policy, i, j, 3),
            "mallows": lambda i, j: check_mallows_helpful(hundredfold_top_human(), policy, i, j),
            "pl": lambda i, j: check_pl_helpful(pl_human((4.0, 3.0, 2.0, 1.0)), policy, i, j),
        }
        for i, j in ((1, 2), (0, 1)):
            with pytest.raises(DomainError, match=r"ranking model, got AlgorithmPolicy.*models\.policy_ranking_model"):
                calls[entry](i, j)


def _pl_utility(h, alg_values):
    from shortlist.collab import expected_utility, joint_pick_from_menus
    from shortlist.models import PlackettLuceModel, model_menu_distribution

    menus = model_menu_distribution(PlackettLuceModel(alg_values, 1.0), 2)
    return expected_utility(joint_pick_from_menus(h, menus), h)


class TestDerivePartialOrder:
    def test_empty_candidate_list_is_refused(self):
        h = mallows_human(Ranking.identity(3), 1.0, ValueProfile((1.0, 0.25, 0.25)))
        with pytest.raises(DomainError, match="nonempty"):
            derive_partial_order(h, [], 1.0, 2)

    def test_single_swap_names_the_two_items_that_moved(self):
        assert analysis._single_swap(R(0, 1, 2, 3), R(0, 3, 2, 1)) == (1, 3)
        assert analysis._single_swap(R(0, 1, 2), R(0, 1, 2)) is None
        assert analysis._single_swap(R(0, 1, 2), R(1, 2, 0)) is None  # three items moved

    def test_four_candidate_diamond(self):
        # centers: aligned, low-swap, top-swap of the low-swap, full reversal
        h = mallows_human(Ranking.identity(3), 1.0, ValueProfile((1.0, 0.25, 0.25)))
        candidates = [R(0, 1, 2), R(0, 2, 1), R(2, 0, 1), R(2, 1, 0)]
        order = derive_partial_order(h, candidates, 1.0, 2)
        assert order.certified(1, 0)  # low-value swap helps
        assert order.certified(2, 3)  # keeping the top item earlier is better
        assert order.certified(0, 3)
        assert order.certified(1, 2)
        assert order.certified(1, 3)  # transitive
        assert not order.certified(0, 1)
        # numeric utilities agree with every certified edge
        for edge in order.edges:
            assert order.utilities[edge.better] >= order.utilities[edge.worse] - 1e-12

    def test_closure_is_reachability_over_the_swap_edges(self, rng):
        transitive = 0
        for _ in range(20):
            m = int(rng.integers(4, 6))
            gt = Ranking(tuple(rng.permutation(m)))
            values = sorted(rng.choice([0.0, 0.0, 1.0, 2.0], size=m - 1), reverse=True)
            h = mallows_human(gt, 0.8, ValueProfile((5.0, *values)))
            # candidates one swap apart from an earlier one, so swap edges chain
            candidates = [Ranking(tuple(rng.permutation(m)))]
            while len(candidates) < 8:
                i, j = rng.choice(m, 2, replace=False)
                swapped = apply_swap(candidates[int(rng.integers(len(candidates)))], int(i), int(j))
                if swapped not in candidates:
                    candidates.append(swapped)
            order = derive_partial_order(h, candidates, 0.7, 2)
            direct = {(e.better, e.worse) for e in order.edges if e.provenance != "transitive"}
            reach = set()
            for start in range(len(candidates)):
                frontier = [start]
                while frontier:
                    node = frontier.pop()
                    for b, w in direct:
                        if b == node and (start, w) not in reach:
                            reach.add((start, w))
                            frontier.append(w)
            assert {(e.better, e.worse) for e in order.edges} == {(b, w) for b, w in reach if b != w}
            assert not any(e.provenance == "transitive" and (e.better, e.worse) in direct for e in order.edges)
            transitive += sum(e.provenance == "transitive" for e in order.edges)
        assert transitive > 0

    def test_each_pair_of_candidates_is_compared_once(self, monkeypatch):
        from shortlist import analysis

        pairs = []
        real = analysis._single_swap
        monkeypatch.setattr(analysis, "_single_swap", lambda a, b: pairs.append((a, b)) or real(a, b))
        h = mallows_human(Ranking.identity(3), 1.0, ValueProfile((1.0, 0.25, 0.25)))
        candidates = [R(0, 1, 2), R(0, 2, 1), R(2, 0, 1), R(2, 1, 0)]
        derive_partial_order(h, candidates, 1.0, 2)
        assert len(pairs) == math.comb(len(candidates), 2)
        assert {frozenset(p) for p in pairs} == {frozenset(p) for p in itertools.combinations(candidates, 2)}

    def test_single_candidate_no_edges(self):
        h = mallows_human(Ranking.identity(3), 1.0, borda_values(3))
        order = derive_partial_order(h, [R(0, 1, 2)], 1.0, 2)
        assert order.edges == ()

    def test_m10_tail_reversal_region_dependence(self):
        # no single swap links the pair, so no certified edge; which side wins
        # against acting alone flips with the accuracy split
        m = 10
        gt = Ranking.identity(m)
        a2_center = Ranking((0, 1, 2, 3, 4, 9, 8, 7, 6, 5))
        h = mallows_human(gt, 1.0, top_item_values(m))
        order = derive_partial_order(h, [gt, a2_center], 1.0, 2)
        assert order.edges == ()

        accurate_human = mallows_human(gt, 2.0, top_item_values(m))
        noisy_human = mallows_human(gt, 0.3, top_item_values(m))
        for human, phi_a, algorithms_win in (
            (accurate_human, 0.3, False),
            (noisy_human, 2.0, True),
        ):
            solo = solo_utility(human)
            for center in (gt, a2_center):
                joint = joint_utility(human, AlgorithmPolicy(center, phi_a, 2))
                assert (joint > solo) == algorithms_win
