"""Permutations, value profiles, and the population/policy data model.

Items are plain integers ``0..m-1`` everywhere inside the library; the CLI
translates to and from 1-indexed labels. All types here are immutable after
construction and safe to share across workers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DimensionError, DomainError

WEIGHT_TOLERANCE = 1e-9


class _Noiseless:
    """Sentinel accuracy meaning a point mass on the policy's center ranking."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOISELESS"


NOISELESS = _Noiseless()


@dataclass(frozen=True)
class Ranking:
    """A strict total order over items ``0..m-1``, most preferred first.

    ``order[p]`` is the item at (0-based) position ``p``; ``positions`` is
    the inverse tuple and ``position(x)`` its range-checked accessor.
    """

    order: tuple[int, ...]
    positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple(int(x) for x in self.order)
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
        if not 0 <= item < self.m:
            raise DomainError(f"unknown item {item} for m={self.m}")
        return self.positions[item]

    def prefix(self, k: int) -> tuple[int, ...]:
        """The first ``k`` items in order."""
        return self.order[:k]

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
    coordinates (merge-sort style), so it stays O(m log m).
    """
    if a.m != b.m:
        raise DimensionError(f"rankings over different universes: {a.m} vs {b.m}")
    seq = [a.position(item) for item in b.order]
    return _count_inversions(seq)


def _count_inversions(seq: list[int]) -> int:
    n = len(seq)
    if n < 2:
        return 0
    mid = n // 2
    left, right = seq[:mid], seq[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            count += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    seq[:] = merged
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
        values = tuple(float(v) for v in self.values)
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
    """Borda scores by rank: ``(m-1, m-2, ..., 0)``."""
    if m < 1:
        raise DomainError("m must be at least 1")
    return ValueProfile(tuple(float(m - 1 - p) for p in range(m)))


def top_item_values(m: int, value: float = 1.0) -> ValueProfile:
    """Top-item-recovery profile: only the best item carries value."""
    if m < 1:
        raise DomainError("m must be at least 1")
    if value <= 0:
        raise DomainError("top value must be positive")
    return ValueProfile((float(value),) + (0.0,) * (m - 1))


@dataclass(frozen=True)
class HumanType:
    """One type in the population: ground truth, noise model, values, weight."""

    ground_truth: Ranking
    noise: object
    values: ValueProfile
    weight: float = 1.0

    def __post_init__(self):
        if not 0 < self.weight <= 1:
            raise DomainError(f"weight must be in (0, 1]: {self.weight}")
        if self.values.m != self.ground_truth.m:
            raise DimensionError("value profile and ranking sizes differ")
        center = getattr(self.noise, "center", None)
        if isinstance(center, Ranking) and center != self.ground_truth:
            raise DomainError("noise model center must equal the ground-truth ranking")

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
        m = types[0].m
        if any(t.m != m for t in types):
            raise DimensionError("all types must share the same item count")
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
    """A curation strategy: center ranking, accuracy (or NOISELESS), menu size."""

    center: Ranking
    accuracy: float | _Noiseless
    menu_size: int

    def __post_init__(self):
        if not 1 <= self.menu_size <= self.center.m:
            raise DomainError(
                f"menu size {self.menu_size} out of range for m={self.center.m}"
            )
        if not isinstance(self.accuracy, _Noiseless):
            acc = float(self.accuracy)
            if math.isnan(acc) or acc < 0:
                raise DomainError(f"accuracy must be nonnegative or NOISELESS, got {acc!r}")
            if math.isinf(acc):
                raise DomainError("accuracy must be finite; use NOISELESS for a fixed menu")
            object.__setattr__(self, "accuracy", acc)

    @property
    def m(self) -> int:
        return self.center.m

    @property
    def is_noiseless(self) -> bool:
        return isinstance(self.accuracy, _Noiseless)

    def fixed_menu(self) -> frozenset[int]:
        """The single menu a noiseless policy always presents."""
        if not self.is_noiseless:
            raise DomainError("policy is noisy; its menu is random")
        return self.center.top(self.menu_size)
