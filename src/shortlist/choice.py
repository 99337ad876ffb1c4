"""Probability that an item is ranked first among a presented menu.

``choice_table`` scores a batch of B menus of k items and ``choice_dist``
scores one. Both check the model (``rankings.check_ranking_model``) and the
menus (``models._check_menus``), map each menu to the sorted positions of its
items in the model's own order (``ranks``) and leave the family's math to the
model's ``pick_rows`` (see ``models``), so neither knows the family.
``choice_table`` sorts the rows by those positions before it cuts them into
blocks of ``MENU_BLOCK`` menus, so a block holds whole runs of menus with
common leading items. For Mallows models the math is one insertion DP whose
states are the distinct prefixes of a block's menus: menus that share leading
items share those steps, and each whole menu is read at the step of its last
item, whatever the block holds, so a menu has the same bits alone or in any
batch. A menu table runs that DP directly on position sets, once per block for
every Mallows accuracy it holds (see ``collab.menu_utility_table``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import _check_items, _check_menus
from .rankings import check_ranking_model


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
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"pick probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", dict(self.probs))

    def __getitem__(self, item: int) -> float:
        return self.probs.get(item, 0.0)

    def items(self):
        return self.probs.items()


# (menu, accuracy) pairs per pass of the batched DP: a pass holds at most
# (k - 1) * MENU_BLOCK prefix states of k * m floats, so the block bounds its
# working memory
MENU_BLOCK = 512


def choice_table(model, menus) -> np.ndarray:
    """Pick probabilities for a batch of equal-size menus, one row per menu.

    ``menus`` is an int array of shape (B, k) whose rows hold distinct items
    in any order; entry [b, j] of the result is the probability that
    ``menus[b, j]`` is picked from menu b. Each row is sorted into the
    model's own order (``model.ranks``), the rows are sorted by those
    positions, and ``model.pick_rows`` scores the sorted positions in blocks
    of ``MENU_BLOCK`` menus; a menu's row has the same bits as when it is
    scored alone. ``check_ranking_model`` and ``_check_menus`` check the input.
    """
    check_ranking_model(model)
    menus = _check_menus(model.m, menus)
    B, k = menus.shape
    ranks = np.asarray(model.ranks, dtype=np.intp)[menus]
    order = np.argsort(ranks, axis=1)
    rows = np.take_along_axis(ranks, order, axis=1)
    # blocks cut from rows sorted by their positions hold whole prefix subtrees
    by_position = np.lexsort(rows.T[::-1])
    out = np.empty((B, k))
    for lo in range(0, B, MENU_BLOCK):
        block = by_position[lo : lo + MENU_BLOCK]
        out[block[:, None], order[block]] = model.pick_rows(rows[block])
    return out


def choice_dist(model, items) -> PickDistribution:
    """Pick distribution over one menu, with the bits of its ``choice_table`` row."""
    check_ranking_model(model)
    ranks = model.ranks
    menu = sorted(_check_items(model.m, items), key=ranks.__getitem__)
    row = model.pick_rows(np.array([[ranks[x] for x in menu]], dtype=np.intp))[0].tolist()
    return PickDistribution(dict(zip(menu, row)))


def oracle_choice_dist(model, items) -> PickDistribution:
    """Enumeration-based pick distribution, for validating the closed routes."""
    menu = _check_items(model.m, items)
    probs = {x: 0.0 for x in menu}
    for ranking, p in model.support():
        first = min(menu, key=ranking.position)
        probs[first] += p
    return PickDistribution(probs)
