"""Misalignment analysis: swap effects, sufficient-condition checkers, partial orders.

Conventions: functions taking ``(h, a, i, j)`` treat ``i`` and ``j`` as item
ids; rank-based formulas convert through the human's ground truth (rank 1 =
her favorite). The two value-only checkers take 1-based ranks directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .collab import expected_utility, joint_pick_dist, joint_utility
from .errors import DomainError
from .models import MallowsModel, PlackettLuceModel, policy_ranking_model
from .rankings import AlgorithmPolicy, HumanType, Ranking, ValueProfile, apply_swap


@dataclass(frozen=True)
class SwapReport:
    """Effect of demoting item ``pair[0]`` below ``pair[1]`` in the algorithm center."""

    pair: tuple[int, int]
    item_probs: dict[int, tuple[float, float]]  # item -> (P under A1, P under A2)
    utility_delta: float  # E[u | swapped A2] - E[u | original A1]

    def delta(self, item: int) -> float:
        before, after = self.item_probs[item]
        return after - before


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one sufficient-condition inequality, with both sides shown."""

    holds: bool
    lhs: float | None
    rhs: float | None
    witness: int | None = None
    applicable: bool = True
    note: str = ""


def swap_effect(h: HumanType, a: AlgorithmPolicy, i: int, j: int) -> SwapReport:
    """Exact pick distributions before and after swapping (i, j) in the center.

    ``i`` must be strictly ahead of ``j`` in the policy's center; the swapped
    policy keeps the same accuracy and menu size.
    """
    if a.center.position(i) >= a.center.position(j):
        raise DomainError(
            f"item {i} must be ahead of item {j} in the algorithm center"
        )
    swapped = AlgorithmPolicy(
        center=apply_swap(a.center, i, j),
        accuracy=a.accuracy,
        menu_size=a.menu_size,
    )
    d1 = joint_pick_dist(h, a)
    d2 = joint_pick_dist(h, swapped)
    item_probs = {x: (d1[x], d2[x]) for x in range(h.m)}
    delta = expected_utility(d2, h) - expected_utility(d1, h)
    return SwapReport(pair=(i, j), item_probs=item_probs, utility_delta=delta)


def _top2_prob(alg, pair) -> float:
    pair = frozenset(pair)
    if isinstance(alg, AlgorithmPolicy):
        if alg.menu_size != 2:
            raise DomainError("psi is defined for menu size 2")
        model = policy_ranking_model(alg)
        if model is None:
            return 1.0 if alg.fixed_menu() == pair else 0.0
        return model.topk_set_prob(pair)
    return alg.topk_set_prob(pair)


def psi(alg, i: int, j: int, r: int) -> float:
    """Difference of the algorithm's top-2 menu probabilities {i, r} vs {j, r}.

    Nonnegative whenever ``i`` is center-better than ``j``: replacing a menu
    item with a center-worse one can only lose probability.
    """
    if r in (i, j) or i == j:
        raise DomainError("psi needs three distinct items")
    center = getattr(alg, "center", None)
    if isinstance(center, Ranking) and center.position(i) >= center.position(j):
        raise DomainError(f"item {i} must be center-better than item {j}")
    return _top2_prob(alg, (i, r)) - _top2_prob(alg, (j, r))


def check_mallows_harmful(
    values: ValueProfile, phi_h: float, rank_i: int, rank_j: int
) -> ConditionVerdict:
    """Harmfulness condition for a Mallows human at menu size 2.

    Swapping the items at (1-based) ranks ``rank_i < rank_j`` in the
    algorithm's center is guaranteed (weakly) harmful when

        v_1 - v_i <= exp(-phi_h (2 Delta - 1)) * (v_1 - v_j),

    with ``Delta = rank_j - rank_i``. The exponent covers the worst-case
    inversion growth of the item swap, so the verdict is sound for any
    algorithm distribution that ranks item i ahead of item j.
    """
    if not 1 <= rank_i < rank_j <= values.m:
        raise DomainError("need ranks 1 <= rank_i < rank_j <= m")
    if phi_h <= 0:
        return ConditionVerdict(
            holds=False, lhs=None, rhs=None, applicable=False,
            note="condition is stated for phi_h > 0",
        )
    delta = rank_j - rank_i
    lhs = values[0] - values[rank_i - 1]
    rhs = math.exp(-phi_h * (2 * delta - 1)) * (values[0] - values[rank_j - 1])
    return ConditionVerdict(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def check_mallows_helpful(
    h: HumanType, a, i: int, j: int
) -> ConditionVerdict:
    """Helpfulness condition for a Mallows human at menu size 2.

    Searches for a witness rank ``i' < rank(i)`` whose value dominates
    the psi-weighted comparison ratio; the first witness is reported.
    """
    phi_h = _mallows_phi(h)
    rank_i = h.ground_truth.position(i) + 1
    rank_j = h.ground_truth.position(j) + 1
    if rank_i >= rank_j:
        raise DomainError("item i must be human-better than item j")
    if rank_i < 2:
        return ConditionVerdict(
            holds=False, lhs=None, rhs=None, applicable=False,
            note="no candidate witness ranks above i",
        )
    v_i = h.values[rank_i - 1]
    if v_i == 0:
        return ConditionVerdict(
            holds=False, lhs=None, rhs=None, applicable=False,
            note="value ratio undefined: v_i = 0",
        )
    delta = rank_j - rank_i + 1
    others = [r for r in range(h.m) if r not in (i, j)]
    psis = {r: psi(a, i, j, r) for r in others}
    numerator = math.fsum(psis.values())
    factor = 1.0 / -math.expm1(-phi_h * delta)
    best: ConditionVerdict | None = None
    for witness_rank in range(1, rank_i):
        denom = math.fsum(
            psis[r] * math.exp(-phi_h * (rank_j - (h.ground_truth.position(r) + 1) + 1))
            for r in others
            if h.ground_truth.position(r) + 1 <= witness_rank
        )
        if denom <= 0:
            verdict = ConditionVerdict(
                holds=False, lhs=h.values[witness_rank - 1] / v_i, rhs=math.inf,
                witness=witness_rank,
            )
        else:
            lhs = h.values[witness_rank - 1] / v_i
            rhs = (numerator / denom) * factor
            verdict = ConditionVerdict(holds=lhs >= rhs, lhs=lhs, rhs=rhs, witness=witness_rank)
        if verdict.holds:
            return verdict
        if best is None:
            best = verdict
    assert best is not None
    return best


def check_pl_harmful(values: ValueProfile, beta: float, rank_j: int) -> ConditionVerdict:
    """Harmfulness condition for a Plackett-Luce human: top value gap <= 1.27 beta."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    if not 1 <= rank_j <= values.m:
        raise DomainError("rank_j out of range")
    lhs = values[0] - values[rank_j - 1]
    rhs = 1.27 * beta
    return ConditionVerdict(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def check_pl_helpful(h: HumanType, a, i: int, j: int) -> ConditionVerdict:
    """Helpfulness condition for a Plackett-Luce human at menu size 2."""
    if not isinstance(h.noise, PlackettLuceModel):
        raise DomainError("human noise model must be Plackett-Luce")
    beta = h.noise.beta
    rank_i = h.ground_truth.position(i) + 1
    rank_j = h.ground_truth.position(j) + 1
    if rank_i >= rank_j:
        raise DomainError("item i must be human-better than item j")
    if rank_i < 2:
        return ConditionVerdict(
            holds=False, lhs=None, rhs=None, applicable=False,
            note="no candidate witness ranks above i",
        )
    v = [h.values[h.ground_truth.position(x)] for x in range(h.m)]
    if v[i] == 0:
        return ConditionVerdict(
            holds=False, lhs=None, rhs=None, applicable=False,
            note="value ratio undefined: v_i = 0",
        )
    delta = v[i] - v[j]
    others = [r for r in range(h.m) if r not in (i, j)]
    weights = {
        r: psi(a, i, j, r) / (math.exp((v[r] - v[i]) / beta) + 1.0) for r in others
    }
    numerator = math.fsum(weights.values())
    gap_term = -math.expm1(-delta / beta)
    best: ConditionVerdict | None = None
    for witness_rank in range(1, rank_i):
        denom = math.fsum(
            weights[r]
            for r in others
            if h.ground_truth.position(r) + 1 <= witness_rank
        )
        if denom <= 0 or gap_term <= 0:
            verdict = ConditionVerdict(
                holds=False, lhs=h.values[witness_rank - 1] / v[i], rhs=math.inf,
                witness=witness_rank,
            )
        else:
            lhs = h.values[witness_rank - 1] / v[i]
            rhs = (numerator / denom) * (2.0 / gap_term)
            verdict = ConditionVerdict(holds=lhs >= rhs, lhs=lhs, rhs=rhs, witness=witness_rank)
        if verdict.holds:
            return verdict
        if best is None:
            best = verdict
    assert best is not None
    return best


def _mallows_phi(h: HumanType) -> float:
    if not isinstance(h.noise, MallowsModel):
        raise DomainError("human noise model must be Mallows")
    if h.noise.phi <= 0:
        raise DomainError("condition checkers need phi_h > 0")
    return h.noise.phi


@dataclass(frozen=True)
class PreferenceEdge:
    """Candidate ``better`` is (weakly) preferred to ``worse``; indices into the candidate list."""

    better: int
    worse: int
    provenance: str  # "swap-least" | "swap-top" | "transitive"


@dataclass(frozen=True)
class CandidateOrder:
    edges: tuple[PreferenceEdge, ...]
    utilities: tuple[float, ...]

    def certified(self, better: int, worse: int) -> bool:
        return any(e.better == better and e.worse == worse for e in self.edges)


def _single_swap(a: Ranking, b: Ranking) -> tuple[int, int] | None:
    diff = [x for x in range(a.m) if a.position(x) != b.position(x)]
    if len(diff) != 2:
        return None
    x, y = diff
    if a.position(x) == b.position(y) and a.position(y) == b.position(x):
        return x, y
    return None


def derive_partial_order(h: HumanType, candidates, phi_a: float, k: int) -> CandidateOrder:
    """Certified preference edges between candidate algorithm centers.

    Edges come only from the two safe single-swap arguments: demoting one of
    two tied-least-valued items helps (or is neutral), demoting the single
    top-valued item hurts. Certified edges are closed transitively; exact
    utilities for every candidate come along so uncertified pairs can be
    compared numerically.
    """
    candidates = list(candidates)
    if any(c.m != h.m for c in candidates):
        raise DomainError("candidates must share the human's item universe")
    values = h.values
    vmin = min(values)
    vmax = max(values)
    edges: set[tuple[int, int, str]] = set()
    for a_idx in range(len(candidates)):
        for b_idx in range(len(candidates)):
            if a_idx == b_idx:
                continue
            pair = _single_swap(candidates[a_idx], candidates[b_idx])
            if pair is None:
                continue
            x, y = pair
            if h.ground_truth.position(x) > h.ground_truth.position(y):
                x, y = y, x  # x is the human-better item
            vx = h.value_of(x)
            vy = h.value_of(y)
            a_first = candidates[a_idx].position(x) < candidates[a_idx].position(y)
            promoted, demoted = (a_idx, b_idx) if a_first else (b_idx, a_idx)
            if vx == vy == vmin:
                edges.add((demoted, promoted, "swap-least"))
            elif vx == vmax and vx > vy:
                edges.add((promoted, demoted, "swap-top"))
    # transitive closure over the certified relation
    closed = {(b, w) for b, w, _ in edges}
    changed = True
    while changed:
        changed = False
        for b1, w1 in list(closed):
            for b2, w2 in list(closed):
                if w1 == b2 and (b1, w2) not in closed and b1 != w2:
                    closed.add((b1, w2))
                    edges.add((b1, w2, "transitive"))
                    changed = True
    utilities = [
        joint_utility(h, AlgorithmPolicy(center=center, accuracy=phi_a, menu_size=k))
        for center in candidates
    ]
    ordered = tuple(
        PreferenceEdge(b, w, prov)
        for b, w, prov in sorted(edges)
    )
    return CandidateOrder(edges=ordered, utilities=tuple(utilities))
