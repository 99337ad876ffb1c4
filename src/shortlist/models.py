"""Exact probabilities and sampling for noisy ranking distributions.

Three model families: a Mallows model with closed forms for the events the
rest of the library needs, a Plackett-Luce model driven by per-item values
with Gumbel noise, and an explicit finite distribution over rankings. Each
class holds its own math behind one duck-typed surface, so the rest of the
library never asks which family it has:

- ``m``, ``perm_prob``, ``sample`` and ``support`` (the enumeration oracle,
  refused above ``ENUMERATION_CAP`` items for the closed-form families);
- ``topk_set_prob``, the law of the top-k set, and ``pairwise_prob``;
- ``ranks``, each item's position in the model's own order (the center for
  Mallows and Plackett-Luce, item order for explicit models), and
  ``pick_rows``, the pick probabilities of a block of menus whose rows are
  listed in that order; ``choice.choice_table`` and ``choice.choice_dist``
  sort menus and call it.

A brute-force enumeration oracle sits alongside them so every closed form
can be cross-checked at desk scale.

Two different normalizers both get called "Z" in the Mallows literature; here
``row_z(j)`` is the single-row sum ``1 + e^{-phi} + ... + e^{-phi (j-1)}`` and
``perm_z`` is the full product ``row_z(1) * ... * row_z(m)``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, DimensionError, DomainError
from .rankings import AlgorithmPolicy, Ranking, kendall_tau

ENUMERATION_CAP = 7
MENU_ENUMERATION_CAP = 10**6


def row_z(j: int, phi: float) -> float:
    """Single-row Mallows normalizer ``sum_{t=0}^{j-1} exp(-phi t)``."""
    if phi == 0.0:
        return float(j)
    return math.expm1(-phi * j) / math.expm1(-phi)


@lru_cache(maxsize=256)
def _row_z_values(m: int, phi: float) -> tuple[float, ...]:
    return tuple(row_z(j, phi) for j in range(1, m + 1))


@lru_cache(maxsize=256)
def _insertion_rows(m: int, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Insertion probabilities of every step as read-only (m, m) arrays.

    Row ``t - 1`` of ``probs`` holds ``p_{t,s}`` for ``s = 1..t`` and zeros
    after; ``gammas`` are their running sums and ``keeps = 1 - gammas``, the
    chance that an earlier item at position ``s`` stays there.
    """
    probs = np.zeros((m, m))
    for t in range(1, m + 1):
        probs[t - 1, :t] = np.exp(-phi * (t - np.arange(1, t + 1, dtype=float)))
        probs[t - 1, :t] /= row_z(t, phi)
    gammas = np.cumsum(probs, axis=1)
    keeps = 1.0 - gammas
    for array in (probs, gammas, keeps):
        array.setflags(write=False)
    return probs, gammas, keeps


@dataclass(frozen=True)
class MallowsModel:
    """Distribution over rankings with P[r] proportional to exp(-phi * d(center, r)).

    ``phi = 0`` is accepted and means the uniform distribution (the limits of
    all closed forms are used where the textbook expressions are singular).
    """

    center: Ranking
    phi: float

    def __post_init__(self):
        phi = float(self.phi)
        if math.isnan(phi) or phi < 0:
            raise DomainError(f"accuracy parameter phi must be nonnegative, got {phi!r}")
        if math.isinf(phi):
            raise DomainError(
                "accuracy parameter phi must be finite; a point mass on the center "
                "is the NOISELESS policy accuracy"
            )
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.center.m

    def log_perm_prob(self, r: Ranking) -> float:
        if r.m != self.m:
            raise DimensionError(f"ranking over {r.m} items, model over {self.m}")
        log_perm_z = sum(math.log(z) for z in _row_z_values(self.m, self.phi))
        return -self.phi * kendall_tau(self.center, r) - log_perm_z

    def perm_prob(self, r: Ranking) -> float:
        """Probability of sampling exactly the ranking ``r``."""
        return math.exp(self.log_perm_prob(r))

    def first_item_prob(self, item: int) -> float:
        """Probability that ``item`` comes first in a sampled ranking."""
        pos = self.center.position(item)
        return math.exp(-self.phi * pos) / row_z(self.m, self.phi)

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j] for ``i`` strictly ahead of ``j`` in the center.

        Uses the two-term closed form in the position gap; evaluated via
        ``expm1`` so sweeps with small ``phi`` stay accurate.
        """
        if i == j:
            raise DomainError("pairwise comparison needs two distinct items")
        pi, pj = self.center.position(i), self.center.position(j)
        if pi > pj:
            raise DomainError(
                "pairwise_prob expects the center-better item first; "
                f"item {i} is behind item {j} in the center"
            )
        if self.phi == 0.0:
            return 0.5
        g = pj - pi + 1
        u1, u2 = self.phi * (g - 1), self.phi * g
        if u2 < 1e-3:
            # difference of the two closed-form terms cancels catastrophically
            # here; use the expansion of u/(1-e^-u) instead
            return 0.5 + (u1 + u2) / 12.0 - (u1 + u2) * (u1 * u1 + u2 * u2) / 720.0

        def term(u: float) -> float:
            return u / -math.expm1(-u)

        return (term(u2) - term(u1)) / self.phi

    def log_topk_set_prob(self, items) -> float:
        items = frozenset(items)
        if not items:
            raise DomainError("top-k set must be nonempty")
        k = len(items)
        positions = [self.center.position(x) + 1 for x in items]
        zs = _row_z_values(self.m, self.phi)
        log_p = -self.phi * (sum(positions) - k * (k + 1) // 2)
        for i in range(1, k + 1):
            log_p += math.log(zs[i - 1]) - math.log(zs[self.m - i])
        return log_p

    def topk_set_prob(self, items) -> float:
        """Probability that ``items`` is exactly the unordered top-|items| set."""
        return math.exp(self.log_topk_set_prob(items))

    def sample(self, rng: np.random.Generator) -> Ranking:
        """Draw one ranking by repeated insertion of the center items."""
        probs = _insertion_rows(self.m, self.phi)[0]
        order: list[int] = []
        for t in range(1, self.m + 1):
            order.insert(rng.choice(t, p=probs[t - 1, :t]), self.center.order[t - 1])
        return Ranking(tuple(order))

    @property
    def ranks(self) -> tuple[int, ...]:
        """Each item's center position: the order ``pick_rows`` takes rows in."""
        return self.center.positions

    @cached_property
    def _rank_array(self) -> np.ndarray:
        return np.asarray(self.ranks, dtype=np.intp)

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of a (B, k) block of menus listed in center order.

        One insertion DP over the menus' center positions: state W[b, j, s - 1]
        is the probability that slot j's item (the j-th of menu b in center
        order) is currently menu b's front-runner and sits at position ``s``
        of the partial permutation; slot k carries the front-runner mass of
        all slots, whose suffix sums decide whether a freshly inserted menu
        item takes the lead. The no-menu-item-yet case is the fresh item being
        slot 0, so no side enumeration over guesses is needed. Every row takes
        the same arithmetic at every step from the block's first menu item to
        t = m (a row that does not hold the step's item gets zero fresh mass,
        one that does gets zero shift), so a row's bits do not depend on the
        other rows of its block. Cost O(B k m^2). A full-universe menu (k = m)
        is the first-item law e^{-phi j} / row_z(m), read off the last
        insertion row in O(m).
        """
        B, k = menus.shape
        m = self.m
        if k == 1:
            return np.ones((B, 1))
        probs, gammas, keeps = _insertion_rows(m, self.phi)
        if k == m:
            return np.tile(probs[m - 1, ::-1], (B, 1))
        pos = self._rank_array[menus]
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

    def support(self):
        return _enumerated_support(self)


def _enumerated_support(model):
    """Every ranking with its probability, refused above ``ENUMERATION_CAP`` items."""
    if model.m > ENUMERATION_CAP:
        raise CapacityError(f"enumeration over {model.m}! rankings exceeds cap {ENUMERATION_CAP}")
    for perm in itertools.permutations(range(model.m)):
        r = Ranking(perm)
        yield r, model.perm_prob(r)


def _sorted_by_value(values: tuple[float, ...]) -> Ranking:
    order = sorted(range(len(values)), key=lambda x: (-values[x], x))
    return Ranking(tuple(order))


@dataclass(frozen=True)
class PlackettLuceModel:
    """Ranking distribution from sorting item values perturbed by Gumbel(0, beta).

    ``item_values[x]`` is the deterministic score of item ``x`` (any reals);
    the induced center sorts values descending, ties broken by item index.
    """

    item_values: tuple[float, ...]
    beta: float
    center: Ranking = field(init=False, compare=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.item_values)
        beta = float(self.beta)
        if len(values) < 1:
            raise DomainError("need at least one item value")
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"item values must be finite: {values}")
        if not (math.isfinite(beta) and beta > 0):
            raise DomainError(f"noise scale beta must be positive and finite, got {beta!r}")
        object.__setattr__(self, "item_values", values)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "center", _sorted_by_value(values))

    @property
    def m(self) -> int:
        return len(self.item_values)

    def _scaled(self) -> np.ndarray:
        return np.asarray(self.item_values, dtype=float) / self.beta

    def _check_items(self, *items: int) -> None:
        if min(items) < 0 or max(items) >= len(self.item_values):
            raise DimensionError(f"items {sorted(set(items))} outside 0..{self.m - 1}")

    def log_perm_prob(self, r: Ranking) -> float:
        if r.m != self.m:
            raise DimensionError(f"ranking over {r.m} items, model over {self.m}")
        u = self._scaled()[list(r.order)]
        total = 0.0
        for j in range(self.m):
            tail = u[j:]
            total += u[j] - _logsumexp(tail)
        return total

    def perm_prob(self, r: Ranking) -> float:
        """Sequential-choice probability of the exact ranking ``r``."""
        return math.exp(self.log_perm_prob(r))

    def first_item_prob(self, item: int) -> float:
        self._check_items(item)
        u = self._scaled()
        return float(np.exp(u[item] - _logsumexp(u)))

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j]; the Gumbel race makes this a logistic in the value gap."""
        if i == j:
            raise DomainError("pairwise comparison needs two distinct items")
        self._check_items(i, j)
        gap = (self.item_values[i] - self.item_values[j]) / self.beta
        return 1.0 / (1.0 + math.exp(-gap))

    def topk_set_prob(self, items) -> float:
        """P[``items`` is the top-|items| set], by a DP over its subsets.

        ``f(T)``, the chance that the first |T| picks are the set T, obeys
        ``f(T) = sum_{x in T} f(T - x) * P[x is picked next after T - x]``;
        each pick probability is a softmax over the items not yet picked,
        normalized by their own log-sum-exp rather than by the total minus
        the picked part, which would cancel. O(2^k k + 2^k m) for k items.
        """
        items = sorted(frozenset(items))
        if not items:
            raise DomainError("top-k set must be nonempty")
        self._check_items(items[0], items[-1])
        k = len(items)
        u = self._scaled()
        # taken[S, y]: item y is in the proper subset S of ``items`` (bit i
        # stands for items[i]); the full set is never a denominator
        taken = np.zeros(((1 << k) - 1, self.m), dtype=bool)
        taken[:, items] = np.arange((1 << k) - 1)[:, None] >> np.arange(k) & 1
        rest = np.where(taken, -np.inf, u)
        hi = rest.max(axis=1, keepdims=True)
        log_norm = (hi + np.log(np.exp(rest - hi).sum(axis=1, keepdims=True)))[:, 0]
        f = [1.0] + [0.0] * ((1 << k) - 1)
        for S in range(1, 1 << k):
            f[S] = math.fsum(
                f[S ^ (1 << i)] * math.exp(u[x] - log_norm[S ^ (1 << i)])
                for i, x in enumerate(items)
                if S >> i & 1
            )
        return f[-1]

    @property
    def ranks(self) -> tuple[int, ...]:
        """Each item's center position: the order ``pick_rows`` takes rows in."""
        return self.center.positions

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of (B, k) menus: a softmax of their scaled values.

        Rows come in center order, so a menu's row sums its terms in the same
        order alone or in a batch.
        """
        u = self._scaled()[menus]
        w = np.exp(u - u.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)

    def sample(self, rng: np.random.Generator) -> Ranking:
        noisy = np.asarray(self.item_values) + rng.gumbel(0.0, self.beta, size=self.m)
        order = np.argsort(-noisy, kind="stable")
        return Ranking(tuple(int(x) for x in order))

    def support(self):
        return _enumerated_support(self)


def _logsumexp(u: np.ndarray) -> float:
    hi = float(np.max(u))
    return hi + math.log(float(np.sum(np.exp(u - hi))))


@dataclass(frozen=True)
class ExplicitModel:
    """A finite distribution over rankings given by an explicit support list."""

    entries: tuple[tuple[Ranking, float], ...]

    def __post_init__(self):
        entries = tuple((r, float(p)) for r, p in self.entries)
        if not entries:
            raise DomainError("explicit model needs a nonempty support")
        m = entries[0][0].m
        if any(r.m != m for r, _ in entries):
            raise DimensionError("support rankings must share the same item count")
        if any(p <= 0 for _, p in entries):
            raise DomainError("support probabilities must be positive")
        total = sum(p for _, p in entries)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"support probabilities sum to {total!r}, expected 1")
        if len({r.order for r, _ in entries}) != len(entries):
            raise DomainError("support rankings must be distinct")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return self.entries[0][0].m

    def perm_prob(self, r: Ranking) -> float:
        if r.m != self.m:
            raise DimensionError(f"ranking over {r.m} items, model over {self.m}")
        for ranking, p in self.entries:
            if ranking == r:
                return p
        return 0.0

    def topk_set_prob(self, items) -> float:
        items = frozenset(items)
        if not items:
            raise DomainError("top-k set must be nonempty")
        if min(items) < 0 or max(items) >= self.m:
            raise DimensionError(f"items {sorted(items)} outside 0..{self.m - 1}")
        k = len(items)
        return math.fsum(p for r, p in self.entries if r.top(k) == items)

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j], for either orientation of the pair."""
        if i == j:
            raise DomainError("pairwise comparison needs two distinct items")
        return math.fsum(p for r, p in self.entries if r.position(i) < r.position(j))

    @property
    def ranks(self) -> tuple[int, ...]:
        """Item order, the order ``pick_rows`` takes rows in."""
        return tuple(range(self.m))

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of (B, k) menus, summed over the support in entry order."""
        out = np.empty(menus.shape)
        for b, menu in enumerate(menus.tolist()):
            probs = dict.fromkeys(menu, 0.0)
            for ranking, p in self.entries:
                probs[min(menu, key=ranking.position)] += p
            out[b] = list(probs.values())
        return out

    def sample(self, rng: np.random.Generator) -> Ranking:
        idx = rng.choice(len(self.entries), p=[p for _, p in self.entries])
        return self.entries[idx][0]

    def support(self):
        return iter(self.entries)


def enumerate_event_prob(model, predicate) -> float:
    """Exact probability of ``predicate(ranking)`` by summing over the support.

    The universal brute-force oracle: valid for any model kind, but full
    permutation enumeration is refused above ``ENUMERATION_CAP`` items.
    """
    return math.fsum(p for r, p in model.support() if predicate(r))


def oriented_pairwise_prob(model, i: int, j: int) -> float:
    """P[i before j] for any model and either orientation of the pair.

    Mallows' ``pairwise_prob`` takes the center-better item first, so a
    reversed pair goes through its complement.
    """
    if isinstance(model, MallowsModel) and model.center.position(i) > model.center.position(j):
        return 1.0 - model.pairwise_prob(j, i)
    return model.pairwise_prob(i, j)


def pairwise_matrix(model) -> np.ndarray:
    """Matrix P with P[i, j] = P[i before j] (diagonal zero)."""
    m = model.m
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            p = oriented_pairwise_prob(model, i, j)
            out[i, j] = p
            out[j, i] = 1.0 - p
    return out


def policy_ranking_model(policy: AlgorithmPolicy) -> MallowsModel | None:
    """The noisy ranking model behind a policy, or None when noiseless."""
    if policy.is_noiseless:
        return None
    return MallowsModel(policy.center, policy.accuracy)


def sample_policy_menu(policy: AlgorithmPolicy, rng: np.random.Generator) -> frozenset[int]:
    model = policy_ranking_model(policy)
    if model is None:
        return policy.fixed_menu()
    return model.sample(rng).top(policy.menu_size)


def k_menus(m: int, k: int) -> list[tuple[int, ...]]:
    """Every k-subset of ``0..m-1`` in lexicographic order, if there are few enough.

    The one place that decides which menus can be enumerated: raises
    DomainError unless ``1 <= k <= m`` and CapacityError when C(m, k) exceeds
    ``MENU_ENUMERATION_CAP``, before any menu is built.
    """
    if not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")
    if math.comb(m, k) > MENU_ENUMERATION_CAP:
        raise CapacityError(
            f"C({m},{k}) = {math.comb(m, k)} menus exceeds the exact-enumeration cap"
        )
    return list(itertools.combinations(range(m), k))


def model_menu_distribution(model, k: int) -> dict[frozenset[int], float]:
    """Distribution of the top-``k`` set of a sampled ranking, over all k-subsets."""
    return {frozenset(s): model.topk_set_prob(s) for s in k_menus(model.m, k)}


def menu_distribution(policy: AlgorithmPolicy) -> dict[frozenset[int], float]:
    """Exact distribution over the menus a policy presents."""
    model = policy_ranking_model(policy)
    if model is None:
        return {policy.fixed_menu(): 1.0}
    return model_menu_distribution(model, policy.menu_size)
