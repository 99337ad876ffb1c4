"""Population-level objectives: social welfare, uplift, and special-case strategies."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .collab import joint_utility, solo_utility
from .errors import DomainError
from .rankings import NOISELESS, AlgorithmPolicy, Population, Ranking

UPLIFT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TypeOutcome:
    solo: float
    joint: float

    @property
    def uplifted(self) -> bool:
        """Strictly better with the algorithm than alone (tolerance 1e-12)."""
        return self.joint > self.solo + UPLIFT_TOLERANCE

    @property
    def gain(self) -> float:
        return self.joint - self.solo


@dataclass(frozen=True)
class WelfareReport:
    """Per-type and aggregate outcomes of a policy over a population."""

    social_welfare: float
    per_type: tuple[TypeOutcome, ...]
    weights: tuple[float, ...]

    @property
    def uplift_all(self) -> bool:
        return all(t.uplifted for t in self.per_type)

    @property
    def uplift_fraction(self) -> float:
        """Population-weighted share of types that strictly gain."""
        return math.fsum(w for w, t in zip(self.weights, self.per_type) if t.uplifted)

    @property
    def uplifted_count(self) -> int:
        return sum(1 for t in self.per_type if t.uplifted)

    @property
    def min_gain(self) -> float:
        return min(t.gain for t in self.per_type)


def social_welfare(pop: Population, a: AlgorithmPolicy) -> float:
    """Weighted sum of every type's expected utility under the policy."""
    return math.fsum(h.weight * joint_utility(h, a) for h in pop)


def verify_uplift(pop: Population, a: AlgorithmPolicy) -> WelfareReport:
    """Exact per-type solo/joint comparison for a given policy."""
    outcomes = tuple(TypeOutcome(solo=solo_utility(h), joint=joint_utility(h, a)) for h in pop)
    welfare = math.fsum(h.weight * o.joint for h, o in zip(pop, outcomes))
    return WelfareReport(social_welfare=welfare, per_type=outcomes, weights=pop.weights())


def top_recovery_strategy(pop: Population, k: int) -> AlgorithmPolicy | None:
    """The always-present-the-valued-items policy for top-item-recovery populations.

    Returns the noiseless policy showing every distinct top item (padded with
    zero-value items, ascending) when those fit in a menu of size
    ``min(k, m-1)``; None when they do not.
    """
    if any(not h.values.is_top_item_recovery() for h in pop):
        raise DomainError("population is not in the top-item-recovery setting")
    m = pop.m
    if not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")
    tops = sorted({h.ground_truth.order[0] for h in pop})
    if len(tops) > min(k, m - 1):
        return None
    padding = [x for x in range(m) if x not in tops]
    menu = tops + padding[: k - len(tops)]
    rest = [x for x in range(m) if x not in menu]
    center = Ranking(tuple(menu + rest))
    return AlgorithmPolicy(center=center, accuracy=NOISELESS, menu_size=k)


def best_worst_topitem_rankings(m: int) -> tuple[Ranking, Ranking]:
    """Best and worst algorithm centers for a top-item-recovery human.

    Expressed in the human's labeling (her ground truth is ``0..m-1``): the
    best center keeps her top item first and reverses the rest; the worst
    pushes her top item to the very end.
    """
    if m < 2:
        raise DomainError("need at least two items")
    best = Ranking((0,) + tuple(range(m - 1, 0, -1)))
    worst = Ranking(tuple(range(1, m)) + (0,))
    return best, worst
