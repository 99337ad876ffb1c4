"""Misalignment analysis: swap effects, sufficient-condition checkers, partial orders.

Conventions: functions taking ``(h, a, i, j)`` treat ``i`` and ``j`` as item
ids; rank-based formulas convert through the human's ground truth (rank 1 =
her favorite). The two value-only checkers take 1-based ranks directly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .collab import center_menu_rows, center_utilities, expected_utility, joint_pick_dist, menu_utility_table
from .errors import DomainError
from .models import MallowsModel, PlackettLuceModel, _check_items, _logistic, policy_ranking_model
from .rankings import AlgorithmPolicy, HumanType, Population, Ranking, ValueProfile, apply_swap, as_tuple, check_accuracy, check_human, check_noise_scale, check_ranking_model, check_universe, check_value_profile, is_integer


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
    d1 = joint_pick_dist(h, a)
    if a.center.position(i) >= a.center.position(j):
        raise DomainError(
            f"item {i} must be ahead of item {j} in the algorithm center"
        )
    swapped = replace(a, center=apply_swap(a.center, i, j))
    d2 = joint_pick_dist(h, swapped)
    item_probs = {x: (d1[x], d2[x]) for x in range(h.m)}
    delta = expected_utility(d2, h) - expected_utility(d1, h)
    return SwapReport(pair=(i, j), item_probs=item_probs, utility_delta=delta)


def psi(model, i: int, j: int, r: int) -> float:
    """Difference of the top-2 menu probabilities {i, r} vs {j, r} under a curator's ranking model.

    Nonnegative when ``i`` is center-better than ``j``: replacing a menu item
    with a center-worse one can only lose probability. ``i``, ``j`` and
    ``r`` must be three distinct items (``_check_items``). The one
    orientation rule, DomainError otherwise: a model with a center (Mallows,
    Plackett-Luce) must put ``i`` ahead of ``j`` there, and an explicit model
    in every ranking of its support, as a NOISELESS policy's point mass does.
    """
    check_ranking_model(model)
    _check_items(model.m, (i, j, r))
    center = getattr(model, "center", None)
    rankings = [center] if isinstance(center, Ranking) else [ranking for ranking, _ in model.support()]
    if any(ranking.position(i) > ranking.position(j) for ranking in rankings):
        raise DomainError(f"item {i} must be center-better than item {j}")
    return model.topk_set_prob((i, r)) - model.topk_set_prob((j, r))


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
    check_value_profile(values)
    if not (is_integer(rank_i) and is_integer(rank_j) and 1 <= rank_i < rank_j <= values.m):
        raise DomainError(f"need integer ranks 1 <= rank_i < rank_j <= {values.m}, got {rank_i!r}, {rank_j!r}")
    check_accuracy(phi_h, "phi_h")
    if phi_h == 0:
        return ConditionVerdict(
            holds=False, lhs=None, rhs=None, applicable=False,
            note="condition is stated for phi_h > 0",
        )
    delta = rank_j - rank_i
    lhs = values[0] - values[rank_i - 1]
    rhs = math.exp(-phi_h * (2 * delta - 1)) * (values[0] - values[rank_j - 1])
    return ConditionVerdict(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def check_mallows_helpful(h: HumanType, a, i: int, j: int) -> ConditionVerdict:
    """Helpfulness condition for a Mallows human and a curator's ranking model ``a``, at menu size 2.

    A policy's model is ``models.policy_ranking_model(policy)``. Searches for
    a witness rank ``i' < rank(i)`` whose value dominates the psi-weighted
    comparison ratio; the first witness is reported.
    """
    check_human(h)
    phi_h = _mallows_phi(h)

    def terms(psis, rank, rank_i, rank_j):
        weighted = {
            r: p * math.exp(-phi_h * (rank_j - rank[r] + 1))
            for r, p in psis.items()
            if rank[r] < rank_i
        }
        return psis, weighted, 1.0 / -math.expm1(-phi_h * (rank_j - rank_i + 1))

    return _helpful_witness(h, a, i, j, terms)


def _helpful_witness(h: HumanType, a, i: int, j: int, terms) -> ConditionVerdict:
    """The witness search both helpfulness checkers share.

    With the human's 1-based ranks, a witness rank ``w < rank(i)`` holds when
    ``v_w / v_i >= (sum(num) / sum(den[r] for rank(r) <= w)) * scale``.
    ``terms(psis, rank, rank_i, rank_j)`` turns psi of every item ``r`` other
    than i and j into the family's numerator and denominator terms (dicts
    keyed by ``r``) and its scale, ``inf`` when no witness can hold. The
    first holding witness is reported, else the first one tried. ``a`` is the
    curator's ranking model, read through its top-2 sets as ``psi`` reads it:
    it must share the human's item universe and rank i ahead of j.
    """
    check_ranking_model(a)
    check_universe(h, a)
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
    rank = [p + 1 for p in h.ground_truth.positions]
    psis = {r: psi(a, i, j, r) for r in range(h.m) if r not in (i, j)}
    num, den, scale = terms(psis, rank, rank_i, rank_j)
    numerator = math.fsum(num.values())
    best: ConditionVerdict | None = None
    for witness_rank in range(1, rank_i):
        lhs = h.values[witness_rank - 1] / v_i
        denom = math.fsum(t for r, t in den.items() if rank[r] <= witness_rank)
        if denom <= 0 or scale == math.inf:
            verdict = ConditionVerdict(holds=False, lhs=lhs, rhs=math.inf, witness=witness_rank)
        else:
            rhs = (numerator / denom) * scale
            verdict = ConditionVerdict(holds=lhs >= rhs, lhs=lhs, rhs=rhs, witness=witness_rank)
        if verdict.holds:
            return verdict
        if best is None:
            best = verdict
    assert best is not None
    return best


def check_pl_harmful(values: ValueProfile, beta: float, rank_j: int) -> ConditionVerdict:
    """Harmfulness condition for a Plackett-Luce human: top value gap <= 1.27 beta."""
    check_value_profile(values)
    check_noise_scale(beta)
    if not (is_integer(rank_j) and 1 <= rank_j <= values.m):
        raise DomainError(f"need an integer rank 1 <= rank_j <= {values.m}, got {rank_j!r}")
    lhs = values[0] - values[rank_j - 1]
    rhs = 1.27 * beta
    return ConditionVerdict(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def check_pl_helpful(h: HumanType, a, i: int, j: int) -> ConditionVerdict:
    """Helpfulness condition for a Plackett-Luce human and a curator's ranking model ``a``, at menu size 2."""
    check_human(h)
    if not isinstance(h.noise, PlackettLuceModel):
        raise DomainError("human noise model must be Plackett-Luce")
    beta = h.noise.beta

    def terms(psis, rank, rank_i, rank_j):
        v_i = h.values[rank_i - 1]
        # p / (e^gap + 1) for gap = (v_r - v_i) / beta, in a form that
        # underflows to 0 at a large gap instead of overflowing
        weights = {
            r: p * _logistic(-(h.values[rank[r] - 1] - v_i) / beta)
            for r, p in psis.items()
        }
        gap_term = -math.expm1(-(v_i - h.values[rank_j - 1]) / beta)
        return weights, weights, 2.0 / gap_term if gap_term > 0 else math.inf

    return _helpful_witness(h, a, i, j, terms)


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
    """The two items ``a`` and ``b`` place differently, if only two: all else fixed, they swapped places."""
    diff = [x for x in range(a.m) if a.position(x) != b.position(x)]
    return tuple(diff) if len(diff) == 2 else None


def derive_partial_order(h: HumanType, candidates, phi_a: float, k: int) -> CandidateOrder:
    """Certified preference edges between candidate algorithm centers.

    Edges come only from the two safe single-swap arguments: demoting one of
    two tied-least-valued items helps (or is neutral), demoting the single
    top-valued item hurts. Certified edges are closed transitively; exact
    utilities for every candidate come along so uncertified pairs can be
    compared numerically. A Mallows policy at a candidate center is the
    identity's policy relabelled, so one menu table of the human and the
    identity's ranking model give every candidate's utility (``center_utilities``).
    """
    check_human(h)
    candidates = as_tuple(candidates, "candidate centers")
    if not candidates:
        raise DomainError("candidate list must be nonempty")
    check_universe(h, *candidates)
    values = h.values
    vmin = min(values)
    vmax = max(values)
    n = len(candidates)
    edges: set[tuple[int, int, str]] = set()
    for a_idx, b_idx in itertools.combinations(range(n), 2):
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
    # transitive closure over the certified relation (Warshall, O(n^3))
    closed = {(b, w) for b, w, _ in edges}
    for via, b, w in itertools.product(range(n), repeat=3):
        if b != w and (b, via) in closed and (via, w) in closed and (b, w) not in closed:
            closed.add((b, w))
            edges.add((b, w, "transitive"))
    model = policy_ranking_model(AlgorithmPolicy(Ranking.identity(h.m), phi_a, k))
    rows = center_menu_rows([c.order for c in candidates], k)
    utilities = center_utilities(menu_utility_table(Population.single(h), k), model, rows)[:, 0]
    ordered = tuple(
        PreferenceEdge(b, w, prov)
        for b, w, prov in sorted(edges)
    )
    return CandidateOrder(edges=ordered, utilities=tuple(utilities.tolist()))
