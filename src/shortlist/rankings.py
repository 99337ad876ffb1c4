"""Permutations, value profiles, and the population/policy data model.

Items are plain integers ``0..m-1`` everywhere inside the library; the CLI
translates to and from 1-indexed labels. All types here are immutable after
construction and safe to share across workers. The shared input rules live here:
``is_integer``, ``is_number``, ``check_menu_size``, ``check_universe``, ``check_ranking_model``.
"""
from __future__ import annotations

import bisect
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DimensionError, DomainError

WEIGHT_TOLERANCE = 1e-9


# the Mallows limit phi -> inf: all mass on the center, so a fixed menu
NOISELESS = math.inf


def is_integer(x) -> bool:
    """The one rule for an item or a count: ``numbers.Integral``, numpy integers included, ``bool`` refused.

    ``int`` is tested first because the ABC check costs far more per call.
    """
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def is_number(x) -> bool:
    """The one rule for a real parameter: ``numbers.Real``, numpy floats and integers included, ``bool`` refused.

    ``float`` and ``int`` are tested first because the ABC check costs far more per call.
    """
    return type(x) is float or type(x) is int or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def check_menu_size(k: int, m: int) -> None:
    """Refuse a menu size that is not an integer in ``1..m`` (DomainError)."""
    if not is_integer(k) or not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")


def check_ranking_model(model) -> None:
    """Refuse a human's noise or a curator that is not a ranking model, a policy included (DomainError)."""
    if not hasattr(model, "topk_set_prob"):
        raise DomainError(f"expected a ranking model, got {type(model).__name__}: use models.policy_ranking_model for a policy")


def check_universe(first, *others) -> None:
    """Refuse objects (anything with an item count ``m``) over different item universes (DimensionError)."""
    for other in others:
        if other.m != first.m:
            raise DimensionError(f"objects over different item universes: {first.m} and {other.m} items")


@dataclass(frozen=True)
class Ranking:
    """A strict total order over items ``0..m-1``, most preferred first.

    ``order[p]`` is the item at (0-based) position ``p``; ``positions`` is
    the inverse tuple and ``position(x)`` its range-checked accessor.
    """

    order: tuple[int, ...]
    positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple(self.order)
        if not all(map(is_integer, order)):
            raise DomainError(f"ranking items must be integers, got {order}")
        order = tuple(map(int, order))
        m = len(order)
        if m < 1:
            raise DomainError("a ranking needs at least one item")
        if sorted(order) != list(range(m)):
            raise DomainError(f"not a permutation of 0..{m - 1}: {order}")
        positions = [0] * m
        for pos, item in enumerate(order):
            positions[item] = pos
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "positions", tuple(positions))

    @classmethod
    def identity(cls, m: int) -> "Ranking":
        return cls(tuple(range(m)))

    @property
    def m(self) -> int:
        return len(self.order)

    def position(self, item: int) -> int:
        """0-based rank of ``item`` (0 = most preferred)."""
        if not is_integer(item) or not 0 <= item < self.m:
            raise DomainError(f"unknown item {item} for m={self.m}")
        return self.positions[item]

    def top(self, k: int) -> frozenset[int]:
        """The first ``k`` items as an unordered set."""
        return frozenset(self.order[:k])

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __getitem__(self, pos: int) -> int:
        return self.order[pos]


def kendall_tau(a: Ranking, b: Ranking) -> int:
    """Number of item pairs ordered oppositely by ``a`` and ``b``.

    Computed as the inversion count of ``b`` re-expressed in ``a``'s
    coordinates: walking ``b`` from the back, each item adds the number of
    later items that ``a`` puts ahead of it, counted by bisection.
    """
    check_universe(a, b)
    later: list[int] = []
    count = 0
    for pos in reversed([a.position(item) for item in b.order]):
        count += bisect.bisect_left(later, pos)
        bisect.insort(later, pos)
    return count


def apply_swap(r: Ranking, i: int, j: int) -> Ranking:
    """Exchange the positions of items ``i`` and ``j``; everything else fixed."""
    if i == j:
        raise DomainError("swap needs two distinct items")
    pi, pj = r.position(i), r.position(j)
    order = list(r.order)
    order[pi], order[pj] = j, i
    return Ranking(tuple(order))


@dataclass(frozen=True)
class ValueProfile:
    """Non-increasing nonnegative values indexed by rank position (0 = best)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(self.values)
        if not all(map(is_number, values)):
            raise DomainError(f"values must be numbers: {values}")
        values = tuple(map(float, values))
        if len(values) < 1:
            raise DomainError("a value profile needs at least one entry")
        if any(not (math.isfinite(v) and v >= 0) for v in values):
            raise DomainError(f"values must be finite and nonnegative: {values}")
        if any(values[p] < values[p + 1] for p in range(len(values) - 1)):
            raise DomainError(f"values must be non-increasing: {values}")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return len(self.values)

    def __getitem__(self, rank: int) -> float:
        return self.values[rank]

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def is_top_item_recovery(self) -> bool:
        """True when only the rank-0 value is positive."""
        return self.values[0] > 0 and all(v == 0 for v in self.values[1:])


def borda_values(m: int) -> ValueProfile:
    """Borda scores by rank: ``(m-1, m-2, ..., 0)``; ``ValueProfile`` refuses ``m < 1``."""
    return ValueProfile(tuple(float(m - 1 - p) for p in range(m)))


def top_item_values(m: int) -> ValueProfile:
    """Top-item-recovery profile: only the best item carries value, 1.0; ``ValueProfile`` refuses ``m < 1``."""
    return ValueProfile(tuple(float(p == 0) for p in range(m)))


@dataclass(frozen=True)
class HumanType:
    """One type in the population: ground truth, noise model, values, weight."""

    ground_truth: Ranking
    noise: object
    values: ValueProfile
    weight: float = 1.0

    def __post_init__(self):
        check_ranking_model(self.noise)
        if not is_number(self.weight) or not 0 < self.weight <= 1:
            raise DomainError(f"weight must be a number in (0, 1]: {self.weight!r}")
        check_universe(self.ground_truth, self.values, self.noise)
        center = getattr(self.noise, "center", None)
        if isinstance(center, Ranking) and center != self.ground_truth:
            # a Plackett-Luce center breaks value ties by item index, so it
            # stands for every order its item values do not increase along
            scores = getattr(self.noise, "item_values", None)
            if scores is None:
                raise DomainError("noise model center must equal the ground-truth ranking")
            order = self.ground_truth.order
            if any(scores[x] < scores[y] for x, y in zip(order, order[1:])):
                raise DomainError("noise model item values must not increase along the ground-truth ranking")

    @property
    def m(self) -> int:
        return self.ground_truth.m

    def value_of(self, item: int) -> float:
        """The value this type assigns to ``item`` (by its ground-truth rank)."""
        return self.values[self.ground_truth.position(item)]


@dataclass(frozen=True)
class Population:
    """A weighted set of human types over a shared item universe."""

    types: tuple[HumanType, ...]

    def __post_init__(self):
        types = tuple(self.types)
        if not types:
            raise DomainError("population must contain at least one type")
        check_universe(*types)
        total = math.fsum(t.weight for t in types)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise DomainError(f"type weights sum to {total!r}, expected 1")
        if total != 1.0:
            if abs(total - 1.0) > 1e-12:
                warnings.warn(
                    f"renormalizing type weights (sum was {total!r})", stacklevel=2
                )
            types = tuple(
                HumanType(t.ground_truth, t.noise, t.values, t.weight / total)
                for t in types
            )
        object.__setattr__(self, "types", types)

    @classmethod
    def single(cls, human: HumanType) -> "Population":
        return cls((HumanType(human.ground_truth, human.noise, human.values, 1.0),))

    @property
    def m(self) -> int:
        return self.types[0].m

    @property
    def n(self) -> int:
        return len(self.types)

    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.types)

    def __iter__(self) -> Iterator[HumanType]:
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)


@dataclass(frozen=True)
class AlgorithmPolicy:
    """A curation strategy: center ranking, Mallows accuracy in [0, NOISELESS = inf], menu size."""

    center: Ranking
    accuracy: float
    menu_size: int

    def __post_init__(self):
        check_menu_size(self.menu_size, self.center.m)
        if not is_number(self.accuracy):
            raise DomainError(f"accuracy must be a number, got {self.accuracy!r}")
        acc = float(self.accuracy)
        if math.isnan(acc) or acc < 0:
            raise DomainError(f"accuracy must be nonnegative, got {acc!r}")
        object.__setattr__(self, "accuracy", acc)

    @property
    def m(self) -> int:
        return self.center.m

    @property
    def is_noiseless(self) -> bool:
        return self.accuracy == NOISELESS

    def fixed_menu(self) -> frozenset[int]:
        """The single menu a noiseless policy always presents."""
        if not self.is_noiseless:
            raise DomainError("policy is noisy; its menu is random")
        return self.center.top(self.menu_size)


def menu_policy(m: int, menu) -> AlgorithmPolicy:
    """The noiseless policy that always presents ``menu``: its items in increasing order, then the rest."""
    menu = sorted(menu)
    rest = [x for x in range(m) if x not in menu]
    return AlgorithmPolicy(center=Ranking(tuple(menu + rest)), accuracy=NOISELESS, menu_size=len(menu))
