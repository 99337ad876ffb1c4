"""Probability that an item is ranked first among a presented menu.

For Mallows models one dynamic program over the repeated insertion of center
items gives the whole pick distribution over a menu. It runs on a batch of B
menus of k items at once (``choice_table``), in O(B k m^2) time and in blocks
of ``MENU_BLOCK`` menus; the single-menu ``choice_dist`` is its B = 1 case.
The result depends on a menu only through (m, phi) and the sorted center
positions of its items, so callers that score many types of one accuracy can
share one table (see ``optimize.menu_utility_table``), and the full universe
reads the first-item law off the last insertion row instead of running the
DP. Plackett-Luce reduces to a softmax over the menu; explicit models are
summed directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .models import ExplicitModel, MallowsModel, PlackettLuceModel, _insertion_rows


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


def _mallows_block(model: MallowsModel, pos: np.ndarray) -> np.ndarray:
    """Pick probabilities of a block of menus, as center positions sorted per row.

    ``pos`` has shape (B, k), k >= 2, and row b lists the 0-based center
    positions of menu b's items in increasing order; slot j is the j-th of
    them. State W[b, j, s - 1] is the probability that slot j's item is
    currently menu b's front-runner and sits at position ``s`` of the partial
    permutation; slot k carries the front-runner mass of all slots, whose
    suffix sums decide whether a freshly inserted menu item takes the lead.
    The no-menu-item-yet case is the fresh item being slot 0, so no side
    enumeration over guesses is needed. Every row takes the same arithmetic
    at every step from the block's first menu item to t = m (a row that does
    not hold the step's item gets zero fresh mass, one that does gets zero
    shift), so a row's bits do not depend on the other rows of its block.
    Cost O(B k m^2). A full-universe menu (k = m) is the first-item law
    e^{-phi j} / row_z(m), read off the last insertion row in O(m).
    """
    B, k = pos.shape
    m = model.m
    probs, gammas, keeps = _insertion_rows(m, model.phi)
    if k == m:
        return np.tile(probs[m - 1, ::-1], (B, 1))
    # enters[t-1, b, j] = 1 when step t inserts the item of slot j of menu b
    # (and, for j = k, into the total)
    enters = np.zeros((m, B, k + 1))
    rows = np.arange(B)[:, None]
    enters[pos, rows, np.arange(k)] = 1.0
    enters[pos, rows, k] = 1.0
    inserting = enters[:, :, k]
    counts = inserting.sum(axis=1).tolist()
    lead_steps = set(pos[:, 0].tolist())
    # the block's first step finds nothing inserted yet in any menu
    start = min(lead_steps)
    W = enters[start, :, :, None] * (probs[start] * enters[start, :, :1])[:, None, :]
    # views into W, which every later step updates in place
    total, behind, ahead = W[:, k, ::-1], W[:, :, 1:], W[:, :, :-1]
    for t in range(start + 2, m + 1):
        inserted = counts[t - 1]
        if inserted:
            tail = total.cumsum(axis=1)[:, ::-1]
            if t - 1 in lead_steps:
                tail += enters[t - 1, :, :1]
            fresh = probs[t - 1] * tail
        if inserted < B:
            # inserting a non-menu item ahead of the front-runner moves it back
            moved = gammas[t - 1, :-1] * ahead
            if inserted:
                moved *= (1.0 - inserting[t - 1])[:, None, None]
        W *= keeps[t - 1]
        if inserted < B:
            behind += moved
        if inserted:
            W += enters[t - 1, :, :, None] * fresh[:, None, :]
    return W[:, :k].sum(axis=2)


def _pl_rows(model: PlackettLuceModel, menus: np.ndarray) -> np.ndarray:
    u = model._scaled()[menus]
    w = np.exp(u - u.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def choice_table(model, menus) -> np.ndarray:
    """Pick probabilities for a batch of equal-size menus, one row per menu.

    ``menus`` is an int array of shape (B, k) whose rows hold distinct items
    in any order; entry [b, j] of the result is the probability that
    ``menus[b, j]`` is picked from menu b. Mallows menus run through one
    insertion DP per block of ``MENU_BLOCK`` menus and Plackett-Luce menus
    are a softmax; both see each row sorted by center rank, so a menu's row
    has the same bits as when it is scored alone. Explicit models are summed
    menu by menu.
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
    if isinstance(model, ExplicitModel):
        out = np.empty((B, k))
        for b, row in enumerate(menus.tolist()):
            out[b] = _explicit_choice_dist(model, row).as_tuple(row)
        return out
    if not isinstance(model, (MallowsModel, PlackettLuceModel)):
        raise DomainError(f"unsupported noise model {type(model).__name__}")
    if k == 1:
        return np.ones((B, 1))
    center = np.asarray(model.center.order, dtype=np.intp)
    rank = np.empty(m, dtype=np.intp)
    rank[center] = np.arange(m)
    pos = rank[menus]
    order = np.argsort(pos, axis=1)
    pos = np.take_along_axis(pos, order, axis=1)
    out = np.empty((B, k))
    for lo in range(0, B, MENU_BLOCK):
        block = pos[lo : lo + MENU_BLOCK]
        if isinstance(model, MallowsModel):
            rows = _mallows_block(model, block)
        else:
            rows = _pl_rows(model, center[block])
        np.put_along_axis(out[lo : lo + MENU_BLOCK], order[lo : lo + MENU_BLOCK], rows, axis=1)
    return out


def mallows_choice_dist(model: MallowsModel, items) -> PickDistribution:
    """Exact pick distribution over ``items`` under a Mallows ranking model.

    The one-menu case of the batched insertion DP (see ``_mallows_block``).
    """
    menu = _validated_menu(model.m, items)
    if len(menu) == 1:
        return PickDistribution({next(iter(menu)): 1.0})
    pos = sorted(model.center.position(x) for x in menu)
    row = _mallows_block(model, np.array([pos]))[0].tolist()
    center = model.center.order
    return PickDistribution({center[p]: x for p, x in zip(pos, row)})


def choice_prob_mallows(model: MallowsModel, items, target: int) -> float:
    """P[``target`` precedes every other menu item in a sampled ranking]."""
    menu = _validated_menu(model.m, items)
    if target not in menu:
        raise DomainError(f"target {target} is not in the menu {sorted(menu)}")
    return mallows_choice_dist(model, menu)[target]


def pl_choice_dist(model: PlackettLuceModel, items) -> PickDistribution:
    """Pick distribution over ``items``: a softmax of values at temperature beta."""
    menu = sorted(_validated_menu(model.m, items), key=model.center.position)
    row = _pl_rows(model, np.array([menu]))[0].tolist()
    return PickDistribution(dict(zip(menu, row)))


def choice_prob_pl(model: PlackettLuceModel, items, target: int) -> float:
    menu = _validated_menu(model.m, items)
    if target not in menu:
        raise DomainError(f"target {target} is not in the menu {sorted(menu)}")
    return pl_choice_dist(model, menu)[target]


def _explicit_choice_dist(model: ExplicitModel, items) -> PickDistribution:
    menu = _validated_menu(model.m, items)
    probs = {x: 0.0 for x in menu}
    for ranking, p in model.entries:
        first = min(menu, key=ranking.position)
        probs[first] += p
    return PickDistribution(probs)


def choice_dist(model, items) -> PickDistribution:
    """Pick distribution over a menu, dispatched on the model family."""
    if isinstance(model, MallowsModel):
        return mallows_choice_dist(model, items)
    if isinstance(model, PlackettLuceModel):
        return pl_choice_dist(model, items)
    if isinstance(model, ExplicitModel):
        return _explicit_choice_dist(model, items)
    raise DomainError(f"unsupported noise model {type(model).__name__}")


def choice_prob(model, items, target: int) -> float:
    menu = _validated_menu(model.m, items)
    if target not in menu:
        raise DomainError(f"target {target} is not in the menu {sorted(menu)}")
    return choice_dist(model, menu)[target]


def oracle_choice_dist(model, items, cap: int = 7) -> PickDistribution:
    """Enumeration-based pick distribution, for validating the closed routes."""
    menu = _validated_menu(model.m, items)
    probs = {x: 0.0 for x in menu}
    for ranking, p in model.support(cap=cap):
        first = min(menu, key=ranking.position)
        probs[first] += p
    return PickDistribution(probs)
