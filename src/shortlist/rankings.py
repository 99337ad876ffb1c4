"""Permutations, value profiles, and the population/policy data model.

Items are plain integers ``0..m-1`` everywhere inside the library; the CLI
translates to and from 1-indexed labels. All types here are immutable after
construction and safe to share across workers. The shared input rules live here: ``is_integer``, ``is_number``, ``as_tuple``,
``item_range``, ``is_accuracy`` and ``check_accuracy``, ``check_noise_scale``, ``check_menu_size``, ``check_universe`` (every
object's item count ``m``), ``check_ranking_model``, ``check_policy``, ``check_human``, ``check_value_profile``, ``check_population``,
``open_text`` (a path or a file object).
"""
from __future__ import annotations

import bisect
import contextlib
import io
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
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
    """The one rule for a real parameter: a ``numbers.Real`` within float range, numpy floats and integers included, ``bool`` refused.

    ``float`` and ``int`` are tested first, as the ABC check costs far more; a finite real past float range (``10**400``) is refused.
    """
    try:
        return type(x) is float or (type(x) is int or isinstance(x, numbers.Real) and not isinstance(x, bool)) and (not math.isinf(f := float(x)) or f == x)
    except OverflowError:  # int and Fraction raise where a float would overflow
        return False


def as_tuple(items, what: str) -> tuple:
    """``items`` as a tuple: the one iterable rule, a DomainError naming ``what`` for anything that is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise DomainError(f"{what} must be an iterable, got {type(items).__name__}") from None


def item_range(m) -> range:
    """The items ``0..m-1`` of an item count ``m``: the one count rule, a DomainError unless ``is_integer(m)``, and one naming the limit above ``sys.maxsize``."""
    if not is_integer(m):
        raise DomainError(f"an item count must be an integer, got {m!r}")
    if m > sys.maxsize:
        raise DomainError(f"an item count must be at most sys.maxsize = {sys.maxsize}, got {m!r}")
    return range(m)


def is_accuracy(value, noiseless: bool = False) -> bool:
    """The one accuracy test: a nonnegative finite number, or NOISELESS (inf) too if ``noiseless``."""
    return is_number(value) and 0 <= value and (noiseless or value < math.inf)


def check_accuracy(value, name: str, noiseless: bool = False) -> float:
    """The one accuracy rule: ``value`` as a float if ``is_accuracy``, else DomainError."""
    if is_accuracy(value, noiseless):
        return float(value)
    hint = " or NOISELESS (inf)" if noiseless else "; NOISELESS (inf) is a policy accuracy only"
    raise DomainError(f"{name} must be a nonnegative finite number{hint}, got {value!r}")


def check_noise_scale(beta) -> float:
    """The one noise-scale rule: ``beta`` as a float if a positive finite number, else DomainError."""
    if is_number(beta) and 0 < beta < math.inf:
        return float(beta)
    raise DomainError(f"noise scale beta must be a positive finite number, got {beta!r}")


def check_menu_size(k: int, m: int) -> None:
    """Refuse a menu size that is not an integer in ``1..m`` (DomainError)."""
    if not is_integer(k) or not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")


def check_ranking_model(model) -> None:
    """Refuse a human's noise or a curator that is not a ranking model, a policy included (DomainError)."""
    if not hasattr(model, "topk_set_prob"):
        raise DomainError(f"expected a ranking model, got {type(model).__name__}: use models.policy_ranking_model for a policy")


def check_policy(policy) -> None:
    """Refuse a curator that is not an ``AlgorithmPolicy``, a ranking model included (DomainError)."""
    if not isinstance(policy, AlgorithmPolicy):
        raise DomainError(f"expected a policy (an AlgorithmPolicy), got {type(policy).__name__}")


def check_human(h) -> None:
    """Refuse a human that is not a ``HumanType``, a population, a model or a policy included (DomainError)."""
    if not isinstance(h, HumanType):
        raise DomainError(f"expected a HumanType, got {type(h).__name__}")


def check_value_profile(values) -> None:
    """Refuse values that are not a ``ValueProfile``, a tuple of numbers included (DomainError)."""
    if not isinstance(values, ValueProfile):
        raise DomainError(f"expected a ValueProfile, got {type(values).__name__}")


def check_population(pop) -> None:
    """Refuse a population that is not a ``Population``, a single ``HumanType`` included (DomainError)."""
    if not isinstance(pop, Population):
        raise DomainError(f"expected a Population, got {type(pop).__name__}: use Population.single for one type")


def check_universe(first, *others) -> None:
    """Refuse objects over different item universes (DimensionError), or one without an item count ``m`` (DomainError)."""
    try:
        m = first.m
        for other in others:
            if other.m != m:
                raise DimensionError(f"objects over different item universes: {m} and {other.m} items")
    except AttributeError:
        raise DomainError(f"expected objects with an item count m, got {', '.join(type(x).__name__ for x in (first, *others))}") from None


def open_text(source, mode: str, what: str):
    """The one path-or-stream rule: a ``str`` or ``os.PathLike`` opened as UTF-8 text, newlines untranslated, or a text file object passed through unclosed.

    A binary stream (an ``io`` raw or buffered stream, or a file object whose ``mode`` holds ``b``) is a DomainError.
    """
    if isinstance(source, (str, os.PathLike)):
        return open(source, mode, encoding="utf-8", newline="")
    if not hasattr(source, "read" if mode == "r" else "write"):
        raise DomainError(f"{what} must be a path or a file object, got {type(source).__name__}")
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or "b" in str(getattr(source, "mode", "")):
        raise DomainError(f"{what} must be a path or a text file object, got the binary stream {type(source).__name__}")
    return contextlib.nullcontext(source)


@dataclass(frozen=True)
class Ranking:
    """A strict total order over items ``0..m-1``, most preferred first.

    ``order[p]`` is the item at (0-based) position ``p``; ``positions`` is
    the inverse tuple and ``position(x)`` its range-checked accessor.
    """

    order: tuple[int, ...]
    positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = as_tuple(self.order, "a ranking")
        if not all(map(is_integer, order)):
            raise DomainError(f"ranking items must be integers, got {order}")
        order = tuple(map(int, order))
        m = len(order)
        if m < 1 or sorted(order) != list(range(m)):
            raise DomainError(f"a ranking must be a permutation of 0..m-1 for some m >= 1, got {order}")
        positions = [0] * m
        for pos, item in enumerate(order):
            positions[item] = pos
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "positions", tuple(positions))

    @classmethod
    def identity(cls, m: int) -> "Ranking":
        return cls(tuple(item_range(m)))

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
    check_universe(r)
    pi, pj = r.position(i), r.position(j)
    order = list(r.order)
    order[pi], order[pj] = j, i
    return Ranking(tuple(order))


@dataclass(frozen=True)
class ValueProfile:
    """Non-increasing nonnegative values indexed by rank position (0 = best)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = as_tuple(self.values, "a value profile")
        if not values or not all(is_number(v) and 0 <= v < math.inf for v in values):
            raise DomainError(f"values must be numbers, finite, nonnegative and at least one: {values}")
        values = tuple(map(float, values))
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
    return ValueProfile(tuple(float(m - 1 - p) for p in item_range(m)))


def top_item_values(m: int) -> ValueProfile:
    """Top-item-recovery profile: only the best item carries value, 1.0; ``ValueProfile`` refuses ``m < 1``."""
    return ValueProfile(tuple(float(p == 0) for p in item_range(m)))


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
        check_value_profile(self.values)
        if not isinstance(self.ground_truth, Ranking):
            raise DomainError(f"expected a Ranking as the ground truth, got {type(self.ground_truth).__name__}")
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
        types = as_tuple(self.types, "a population's types")
        if not types:
            raise DomainError("population must contain at least one type")
        check_universe(*types)
        if not all(isinstance(t, HumanType) for t in types):
            raise DomainError(f"population types must be HumanTypes, got {', '.join(type(t).__name__ for t in types)}")
        total = math.fsum(t.weight for t in types)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise DomainError(f"type weights sum to {total!r}, expected 1")
        if total != 1.0:
            if abs(total - 1.0) > 1e-12:
                warnings.warn(
                    f"renormalizing type weights (sum was {total!r})", stacklevel=2
                )
            types = tuple(replace(t, weight=t.weight / total) for t in types)
        object.__setattr__(self, "types", types)

    @classmethod
    def single(cls, human: HumanType) -> "Population":
        check_human(human)
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


@dataclass(frozen=True)
class AlgorithmPolicy:
    """A curation strategy: center ranking, Mallows accuracy in [0, NOISELESS = inf], menu size."""

    center: Ranking
    accuracy: float
    menu_size: int

    def __post_init__(self):
        check_universe(self.center)
        check_menu_size(self.menu_size, self.center.m)
        object.__setattr__(self, "accuracy", check_accuracy(self.accuracy, "accuracy", noiseless=True))

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
    menu = as_tuple(menu, "a menu")
    if not all(map(is_integer, menu)):
        raise DomainError(f"menu items must be integers, got {list(menu)}")
    menu = sorted(menu)
    rest = [x for x in item_range(m) if x not in menu]
    return AlgorithmPolicy(center=Ranking(tuple(menu + rest)), accuracy=NOISELESS, menu_size=len(menu))
