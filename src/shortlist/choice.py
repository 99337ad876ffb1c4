"""Probability that an item is ranked first among a presented menu.

``choice_table`` scores a batch of B menus of k items, in blocks of
``MENU_BLOCK`` menus, and ``choice_dist`` scores one; both validate the
menus, sort each into the model's own order and leave the family's math to
the model's ``pick_rows`` (see ``models``), so neither knows the family and
a menu has the same bits alone or in a batch. For Mallows models that math
is one insertion DP of O(B k m^2); its result depends on a menu only through
(m, phi) and the sorted center positions of its items, so callers that score
many types of one accuracy can share one table (see
``optimize.menu_utility_table``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError


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


def _validated_menu(m: int, items) -> frozenset[int]:
    menu = frozenset(int(x) for x in items)
    if not menu:
        raise DomainError("menu must be nonempty")
    if any(not 0 <= x < m for x in menu):
        raise DimensionError(f"menu {sorted(menu)} contains items outside 0..{m - 1}")
    return menu


MENU_BLOCK = 128  # menus per pass of the batched DP; bounds its working memory


def choice_table(model, menus) -> np.ndarray:
    """Pick probabilities for a batch of equal-size menus, one row per menu.

    ``menus`` is an int array of shape (B, k) whose rows hold distinct items
    in any order; entry [b, j] of the result is the probability that
    ``menus[b, j]`` is picked from menu b. Each row is sorted into the
    model's own order (``model.ranks``) and scored by ``model.pick_rows`` in
    blocks of ``MENU_BLOCK`` menus, so a menu's row has the same bits as
    when it is scored alone.
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
    order = np.argsort(np.asarray(model.ranks)[menus], axis=1)
    rows = np.take_along_axis(menus, order, axis=1)
    out = np.empty((B, k))
    for lo in range(0, B, MENU_BLOCK):
        hi = lo + MENU_BLOCK
        np.put_along_axis(out[lo:hi], order[lo:hi], model.pick_rows(rows[lo:hi]), axis=1)
    return out


def choice_dist(model, items) -> PickDistribution:
    """Pick distribution over one menu, with the bits of its ``choice_table`` row."""
    menu = sorted(_validated_menu(model.m, items), key=model.ranks.__getitem__)
    row = model.pick_rows(np.array([menu]))[0].tolist()
    return PickDistribution(dict(zip(menu, row)))


def choice_prob(model, items, target: int) -> float:
    menu = _validated_menu(model.m, items)
    if target not in menu:
        raise DomainError(f"target {target} is not in the menu {sorted(menu)}")
    return choice_dist(model, menu)[target]


def oracle_choice_dist(model, items) -> PickDistribution:
    """Enumeration-based pick distribution, for validating the closed routes."""
    menu = _validated_menu(model.m, items)
    probs = {x: 0.0 for x in menu}
    for ranking, p in model.support():
        first = min(menu, key=ranking.position)
        probs[first] += p
    return PickDistribution(probs)
