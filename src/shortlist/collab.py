"""Pick distributions and expected utilities for solo and curated humans."""
from __future__ import annotations

import math

import numpy as np

from .choice import PickDistribution, choice_dist, choice_table
from .errors import DomainError
from .models import menu_distribution, sample_policy_menu
from .rankings import AlgorithmPolicy, HumanType


def solo_pick_dist(h: HumanType) -> PickDistribution:
    """Distribution of the item the human picks from the full universe."""
    return choice_dist(h.noise, range(h.m))


def joint_pick_from_menus(h: HumanType, menus: dict[frozenset[int], float]) -> PickDistribution:
    """Pick distribution when the menu itself is drawn from ``menus``.

    Menus of each size are scored in one batched ``choice_table`` call; the
    support is every item of a menu with nonzero probability.
    """
    by_size: dict[int, tuple[list, list]] = {}
    for menu, p_menu in menus.items():
        if p_menu != 0.0:
            rows, weights = by_size.setdefault(len(menu), ([], []))
            rows.append(tuple(menu))
            weights.append(p_menu)
    probs = np.zeros(h.m)
    support: set[int] = set()
    for rows, weights in by_size.values():
        rows = np.array(rows, dtype=np.intp)
        mass = choice_table(h.noise, rows) * np.asarray(weights)[:, None]
        probs += np.bincount(rows.ravel(), weights=mass.ravel(), minlength=h.m)
        support.update(rows.ravel().tolist())
    return PickDistribution({x: float(probs[x]) for x in sorted(support)})


def joint_pick_dist(h: HumanType, a: AlgorithmPolicy) -> PickDistribution:
    """Exact pick distribution of the human-algorithm system.

    Sums the human's conditional pick over every menu the policy can present;
    raises CapacityError when that menu enumeration is infeasible (use
    ``mc_joint_pick_dist`` then).
    """
    if h.m != a.m:
        raise DomainError("human and policy must share the item universe")
    return joint_pick_from_menus(h, menu_distribution(a))


def mc_joint_pick_dist(
    h: HumanType, a: AlgorithmPolicy, samples: int, rng: np.random.Generator
) -> PickDistribution:
    """Monte-Carlo estimate of the joint pick distribution.

    Each sample draws an algorithm menu and an independent human ranking;
    per-item standard error is at most ``1 / (2 sqrt(samples))``.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    counts: dict[int, int] = {}
    for _ in range(samples):
        menu = sample_policy_menu(a, rng)
        human_ranking = h.noise.sample(rng)
        pick = min(menu, key=human_ranking.position)
        counts[pick] = counts.get(pick, 0) + 1
    return PickDistribution({x: c / samples for x, c in counts.items()})


def expected_utility(dist: PickDistribution, h: HumanType) -> float:
    """Expected value of the picked item under the human's own values."""
    return math.fsum(p * h.value_of(item) for item, p in dist.items())


def solo_utility(h: HumanType) -> float:
    return expected_utility(solo_pick_dist(h), h)


def joint_utility(h: HumanType, a: AlgorithmPolicy) -> float:
    return expected_utility(joint_pick_dist(h, a), h)
