"""Population-level objectives: social welfare, uplift, and special-case strategies."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collab import joint_utility, solo_utilities
from .errors import DomainError
from .rankings import AlgorithmPolicy, Population, Ranking, check_menu_size, check_population, is_integer, item_range, menu_policy

UPLIFT_TOLERANCE = 1e-12


def uplifted(joint, solo):
    """``joint > solo + UPLIFT_TOLERANCE``, for floats or elementwise for arrays."""
    return joint > solo + UPLIFT_TOLERANCE


def _welfare(table, weights) -> np.ndarray:
    """Weighted sum of each row of a (rows, types) table, exactly rounded (``math.fsum``).

    Every population sum (welfare, and the uplift share over ``uplifted`` flags)
    goes through here, so a value has the same bits on every path, and ties break alike.
    """
    terms = np.asarray(table) * np.asarray(weights)
    return np.array([math.fsum(row) for row in terms.tolist()])


@dataclass(frozen=True)
class TypeOutcome:
    solo: float
    joint: float

    @property
    def uplifted(self) -> bool:
        """Strictly better with the algorithm than alone (tolerance 1e-12)."""
        return uplifted(self.joint, self.solo)

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
        return float(_welfare([[t.uplifted for t in self.per_type]], self.weights)[0])

    @property
    def uplifted_count(self) -> int:
        return sum(1 for t in self.per_type if t.uplifted)

    @property
    def min_gain(self) -> float:
        return min(t.gain for t in self.per_type)


def social_welfare(pop: Population, a: AlgorithmPolicy) -> float:
    """Weighted sum of every type's expected utility under the policy."""
    check_population(pop)
    return float(_welfare([[joint_utility(h, a) for h in pop]], pop.weights())[0])


def welfare_report(pop: Population, solo, joint) -> WelfareReport:
    """The report of per-type solo and joint utilities, in population order."""
    outcomes = tuple(TypeOutcome(solo=s, joint=j) for s, j in zip(solo, joint))
    welfare = float(_welfare([joint], pop.weights())[0])
    return WelfareReport(social_welfare=welfare, per_type=outcomes, weights=pop.weights())


def verify_uplift(pop: Population, a: AlgorithmPolicy) -> WelfareReport:
    """Exact per-type comparison of ``solo_utilities`` with each type's ``joint_utility``."""
    return welfare_report(pop, solo_utilities(pop).tolist(), [joint_utility(h, a) for h in pop])


def top_recovery_strategy(pop: Population, k: int) -> AlgorithmPolicy | None:
    """The always-present-the-valued-items policy for top-item-recovery populations.

    Returns the noiseless policy showing every distinct top item (padded with
    zero-value items, ascending) when those fit in a menu of size
    ``min(k, m-1)``; None when they do not.
    """
    check_population(pop)
    if any(not h.values.is_top_item_recovery() for h in pop):
        raise DomainError("population is not in the top-item-recovery setting")
    m = pop.m
    check_menu_size(k, m)
    tops = sorted({h.ground_truth.order[0] for h in pop})
    if len(tops) > min(k, m - 1):
        return None
    padding = [x for x in range(m) if x not in tops]
    return menu_policy(m, tops + padding[: k - len(tops)])


def best_worst_topitem_rankings(m: int) -> tuple[Ranking, Ranking]:
    """Best and worst algorithm centers for a top-item-recovery human.

    Expressed in the human's labeling (her ground truth is ``0..m-1``): the
    best center keeps her top item first and reverses the rest; the worst
    pushes her top item to the very end.
    """
    if not is_integer(m) or m < 2:
        raise DomainError(f"need an integer item count m >= 2, got {m!r}")
    rest = item_range(m)[1:]
    best = Ranking((0, *reversed(rest)))
    worst = Ranking((*rest, 0))
    return best, worst
