"""Enumeration oracle for the benchmark's correctness checks.

Every check that compares a result to brute force goes through this module.
It lists all m! rankings once per item count and evaluates probabilities
over that list with NumPy. It shares no code with the library's closed forms
and is fast enough to check every task of a run: the library's own
per-menu oracles (``choice.oracle_choice_dist`` and
``models.enumerate_event_prob``) rescan all m! rankings in Python for every
menu, which costs seconds per task at m = 7. ``selftest.py`` checks that this
oracle agrees with those two functions.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


class Rankings:
    """All rankings of ``m`` items; row r lists items from most preferred."""

    def __init__(self, m: int):
        self.m = m
        self.orders = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
        self.positions = np.empty_like(self.orders)
        rows = np.arange(len(self.orders))[:, None]
        self.positions[rows, self.orders] = np.arange(m)

    def mallows(self, center, phi: float) -> np.ndarray:
        """P[ranking] proportional to exp(-phi * discordant pairs with ``center``)."""
        center = list(center)
        distance = np.zeros(len(self.orders))
        for i, j in itertools.combinations(range(self.m), 2):
            distance += self.positions[:, center[i]] > self.positions[:, center[j]]
        weights = np.exp(-phi * distance)
        return weights / math.fsum(weights)

    def plackett_luce(self, item_values, beta: float) -> np.ndarray:
        """Sequential-choice probability of every ranking under Gumbel noise."""
        u = np.asarray(item_values, dtype=float)[self.orders] / beta
        tail = np.logaddexp.accumulate(u[:, ::-1], axis=1)[:, ::-1]
        return np.exp((u - tail).sum(axis=1))

    def menu_probs(self, probs: np.ndarray, k: int) -> dict[frozenset[int], float]:
        """Distribution of the top-k set, summed over the rankings that show it."""
        keys = np.bitwise_or.reduce(np.left_shift(1, self.orders[:, :k]), axis=1)
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=probs)
        return {
            frozenset(x for x in range(self.m) if key >> x & 1): float(p)
            for key, p in zip(uniq.tolist(), sums)
        }

    def pick_probs(self, probs: np.ndarray, menu) -> np.ndarray:
        """P[item is the first menu item of the ranking], indexed by item."""
        items = np.array(sorted(menu))
        first = items[np.argmin(self.positions[:, items], axis=1)]
        return np.bincount(first, weights=probs, minlength=self.m)

    def joint_pick(self, human_probs: np.ndarray, menus: dict) -> np.ndarray:
        """Pick distribution when the menu is drawn from ``menus``."""
        total = np.zeros(self.m)
        for menu, p in menus.items():
            total += p * self.pick_probs(human_probs, menu)
        return total


def utility(pick: np.ndarray, item_values) -> float:
    """Expected value of the picked item; ``item_values`` is indexed by item."""
    return math.fsum(float(p) * v for p, v in zip(pick, item_values))
