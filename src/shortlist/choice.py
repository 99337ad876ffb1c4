"""Probability that an item is ranked first among a presented menu.

``choice_table`` scores a batch of B menus of k items and ``choice_dist``
scores one; both validate the menus, sort each into the model's own order and
leave the family's math to the model's ``pick_rows`` (see ``models``), so
neither knows the family. ``choice_table`` sorts the rows by their positions
in that order before it cuts them into blocks of ``MENU_BLOCK`` menus, so a
block holds whole runs of menus with common leading items. For Mallows models
the math is one insertion DP whose states are the distinct prefixes of a
block's menus: menus that share leading items share those steps, and each
whole menu's state still rides on to the last step, so a menu has the same
bits alone or in any batch. The result depends on a menu only through (m,
phi) and the sorted center positions of its items, so callers that score many
types of one accuracy can share one table (see
``optimize.menu_utility_table``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .models import _check_items


@dataclass(frozen=True)
class PickDistribution:
    """A probability distribution over picked items."""

    probs: dict[int, float]

    def __post_init__(self):
        if not self.probs:
            raise DomainError("pick distribution needs a nonempty support")
        if any(p < -1e-12 for p in self.probs.values()):
            raise DomainError("pick probabilities must be nonnegative")
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"pick probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", dict(self.probs))

    def __getitem__(self, item: int) -> float:
        return self.probs.get(item, 0.0)

    def support(self) -> frozenset[int]:
        return frozenset(x for x, p in self.probs.items() if p > 0)

    def items(self):
        return self.probs.items()

    def as_tuple(self, order) -> tuple[float, ...]:
        """Probabilities read out in a caller-chosen item order."""
        return tuple(self[x] for x in order)


# menus per pass of the batched DP: a pass holds at most k * MENU_BLOCK prefix
# states of k * m floats, so the block bounds its working memory
MENU_BLOCK = 512


def choice_table(model, menus) -> np.ndarray:
    """Pick probabilities for a batch of equal-size menus, one row per menu.

    ``menus`` is an int array of shape (B, k) whose rows hold distinct items
    in any order; entry [b, j] of the result is the probability that
    ``menus[b, j]`` is picked from menu b. Each row is sorted into the
    model's own order (``model.ranks``), the rows are sorted by those
    positions, and ``model.pick_rows`` scores them in blocks of
    ``MENU_BLOCK`` menus; a menu's row has the same bits as when it is
    scored alone.
    """
    menus = np.asarray(menus, dtype=np.intp)
    if menus.ndim != 2:
        raise DimensionError(f"menus must be a 2-d array, got shape {menus.shape}")
    B, k = menus.shape
    if k == 0:
        raise DomainError("menu must be nonempty")
    m = model.m
    if menus.size and (menus.min() < 0 or menus.max() >= m):
        raise DimensionError(f"menus contain items outside 0..{m - 1}")
    if k > 1 and (np.diff(np.sort(menus, axis=1), axis=1) == 0).any():
        raise DomainError("menu items must be distinct")
    ranks = np.asarray(model.ranks)[menus]
    order = np.argsort(ranks, axis=1)
    rows = np.take_along_axis(menus, order, axis=1)
    # blocks cut from rows sorted by their positions hold whole prefix subtrees
    by_position = np.lexsort(np.take_along_axis(ranks, order, axis=1).T[::-1])
    out = np.empty((B, k))
    for lo in range(0, B, MENU_BLOCK):
        block = by_position[lo : lo + MENU_BLOCK]
        out[block[:, None], order[block]] = model.pick_rows(rows[block])
    return out


def choice_dist(model, items) -> PickDistribution:
    """Pick distribution over one menu, with the bits of its ``choice_table`` row."""
    menu = sorted(_check_items(model.m, items), key=model.ranks.__getitem__)
    row = model.pick_rows(np.array([menu]))[0].tolist()
    return PickDistribution(dict(zip(menu, row)))


def choice_prob(model, items, target: int) -> float:
    menu = _check_items(model.m, items)
    if target not in menu:
        raise DomainError(f"target {target} is not in the menu {sorted(menu)}")
    return choice_dist(model, menu)[target]


def oracle_choice_dist(model, items) -> PickDistribution:
    """Enumeration-based pick distribution, for validating the closed routes."""
    menu = _check_items(model.m, items)
    probs = {x: 0.0 for x in menu}
    for ranking, p in model.support():
        first = min(menu, key=ranking.position)
        probs[first] += p
    return PickDistribution(probs)
