"""Exact probabilities and sampling for noisy ranking distributions.

Three model families: a Mallows model with closed forms for the events the
rest of the library needs, a Plackett-Luce model driven by per-item values
with Gumbel noise, and an explicit finite distribution over rankings. Each
class holds its own math behind one duck-typed surface, so the rest of the
library never asks which family it has:

- ``m``, ``perm_prob``, ``sample_many`` (n rankings as an (n, m) array of
  orders) and ``support`` (the enumeration oracle, refused above
  ``ENUMERATION_CAP`` items for the closed-form families);
- ``topk_set_prob``, the law of the top-k set, whose singletons are the
  first-item law, and ``pairwise_prob``, P[i before j] in either order;
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


def _check_items(m: int, items) -> frozenset:
    """``items`` as a set, refused when empty (DomainError) or outside ``0..m-1`` (DimensionError)."""
    items = frozenset(items)
    if not items:
        raise DomainError("item set must be nonempty")
    if min(items) < 0 or max(items) >= m:
        raise DimensionError(f"items {sorted(items)} outside 0..{m - 1}")
    return items


@lru_cache(maxsize=256)
def _row_z_values(m: int, phi: float) -> tuple[float, ...]:
    return tuple(row_z(j, phi) for j in range(1, m + 1))


@lru_cache(maxsize=256)
def _insertion_rows(m: int, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Insertion probabilities of every step as read-only (m, m) arrays, and the rows per step.

    Row ``t - 1`` of ``probs`` holds ``p_{t,s}`` for ``s = 1..t`` and zeros
    after; ``gammas`` are their running sums and ``keeps = 1 - gammas``, the
    chance that an earlier item at position ``s`` stays there. The fourth
    value holds per step the rows ``MallowsModel.pick_rows`` reads: ``probs``
    forwards and backwards, ``gammas`` without its last entry, and ``keeps``.
    """
    probs = np.zeros((m, m))
    for t in range(1, m + 1):
        probs[t - 1, :t] = np.exp(-phi * (t - np.arange(1, t + 1, dtype=float)))
        probs[t - 1, :t] /= row_z(t, phi)
    gammas = np.cumsum(probs, axis=1)
    keeps = 1.0 - gammas
    for array in (probs, gammas, keeps):
        array.setflags(write=False)
    return probs, gammas, keeps, tuple(zip(probs, probs[:, ::-1], gammas[:, :-1], keeps))


@dataclass(frozen=True)
class MallowsModel:
    """Distribution over rankings with P[r] proportional to exp(-phi * d(center, r)).

    ``phi = 0`` is the uniform distribution and ``phi`` must be finite: the
    ``phi -> inf`` limit, a point mass on the center, is the policy accuracy
    ``NOISELESS`` (see ``policy_ranking_model``).
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

    def perm_prob(self, r: Ranking) -> float:
        """Probability of sampling exactly the ranking ``r``."""
        if r.m != self.m:
            raise DimensionError(f"ranking over {r.m} items, model over {self.m}")
        log_perm_z = sum(math.log(z) for z in _row_z_values(self.m, self.phi))
        return math.exp(-self.phi * kendall_tau(self.center, r) - log_perm_z)

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j], for either orientation of the pair.

        With ``n`` the gap between the two center positions, the center-worse
        item comes first with chance ``e^{-phi n} (Z_1 + ... + Z_n) / (Z_n Z_{n+1})``
        for the ``row_z`` values ``Z_j``. That is ``w(n) - w(n+1)`` for
        ``w(x) = x e^{-phi x} / (1 - e^{-phi x})``, rewritten through
        ``sum_{t<n} (n - t) e^{-phi t} = Z_1 + ... + Z_n``: every term is
        positive, so nothing cancels at small ``phi`` and the exponential
        underflows to 0 at large ``phi``. The center-better side is its
        complement, so the pair sums to one and stays in [0, 1].
        """
        if i == j:
            raise DomainError("pairwise comparison needs two distinct items")
        _check_items(self.m, (i, j))
        pos = self.center.positions
        n = abs(pos[j] - pos[i])
        zs = _row_z_values(len(pos), self.phi)
        worse = math.exp(-self.phi * n) * sum(zs[:n]) / (zs[n - 1] * zs[n])
        return 1.0 - worse if pos[i] < pos[j] else worse

    def topk_set_prob(self, items) -> float:
        """Probability that ``items`` is exactly the unordered top-|items| set."""
        m = self.m
        items = _check_items(m, items)
        k = len(items)
        positions = self.center.positions
        zs = _row_z_values(m, self.phi)
        log_p = -self.phi * (sum([positions[x] for x in items]) - k * (k - 1) // 2)
        for i in range(1, k + 1):
            log_p += math.log(zs[i - 1]) - math.log(zs[m - i])
        return math.exp(log_p)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n rankings by repeated insertion of the center items, as (n, m) orders.

        Step t inserts the center's t-th item at 0-based slot s with
        probability ``p_{t,s+1}``, drawn for all n rankings at once by
        inverting the step's cumulative row ``gammas`` at one uniform each.
        """
        gammas = _insertion_rows(self.m, self.phi)[1]
        orders = np.zeros((n, self.m), dtype=np.intp)
        for t in range(1, self.m + 1):
            slot = np.searchsorted(gammas[t - 1, : t - 1], rng.random(n), side="right")[:, None]
            cols = np.arange(t)
            # items before the slot stay, the rest move one place back
            moved = np.where(cols == slot, self.center.order[t - 1], orders[:, cols - 1])
            orders[:, :t] = np.where(cols < slot, orders[:, :t], moved)
        return orders

    @property
    def ranks(self) -> tuple[int, ...]:
        """Each item's center position: the order ``pick_rows`` takes rows in."""
        return self.center.positions

    @cached_property
    def _rank_array(self) -> np.ndarray:
        return np.asarray(self.ranks, dtype=np.intp)

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of a (B, k) block of menus listed in center order.

        The insertion DP over center positions, run once per distinct prefix
        of the block's menus (``_prefix_tree``). Step t inserts the item at
        center position t - 1. A state W[j, s - 1] is the probability that
        the menu's j-th item in center order is inserted, leads the menu and
        sits at position ``s`` of the partial permutation. After step t it
        depends on a menu only through its items at positions below t, so
        menus with a common prefix share one state until their next items.
        Each step gives every live state the keep/shift update of an item
        outside its menu, and spawns each prefix that ends in the step's item
        from its parent's state: the item leads at ``s`` with probability
        ``p_{t,s}`` times the front-runner mass at ``s`` or behind (1 for a
        first item), and an earlier front-runner keeps the lead only where
        the item lands behind it. A prefix keeps that front-runner mass in
        its last slot, where a whole menu keeps its k-th item. Whole-menu
        states ride on to t = m, as the per-menu DP's rows do, so a row has
        the same bits alone, in any block and beside any rows. A block of B
        menus has at most k B states of k m floats, and a step costs O(k m)
        per live state. A full-universe menu (k = m) is the first-item law
        e^{-phi j} / row_z(m), read off the last insertion row in O(m).
        """
        B, k = menus.shape
        m = self.m
        if k == 1:
            return np.ones((B, 1))
        if k == m:
            return np.tile(_insertion_rows(m, self.phi)[0][m - 1, ::-1], (B, 1))
        top = k - 1  # a prefix's front-runner mass, and a whole menu's k-th item
        nodes, rows, plan = _prefix_tree(self._rank_array[menus], m)
        W = np.zeros((nodes, k, m))
        cells = W.reshape(-1, m)  # one row per (state, slot)
        steps = _insertion_rows(m, self.phi)[3]
        span = None
        for t, a, c, b, lo, parents, targets in plan:
            p, p_back, g, kp = steps[t]
            if b > c:
                # prefixes ending in the step's item: the item leads where it
                # lands at or ahead of the parent's front-runner
                W[c:b] = W[parents]
                X = W[c:b]
                fresh = p_back * X[:, top, ::-1].cumsum(axis=1)  # by position from the back
                X *= kp
                X[:, top, ::-1] += fresh
                cells[targets] = fresh[:, ::-1]
            if a > lo:
                # an item outside the menu: the front-runner stays, or moves back one place
                if span != (lo, a):
                    span = (lo, a)
                    live = W[lo:a]
                    ahead, behind = live[:, :, :-1], live[:, :, 1:]
                moved = g * ahead
                live *= kp
                behind += moved
            if c > a:
                # a one-item prefix leads wherever its item lands
                W[a:c, 0] = W[a:c, top] = p
        return W[rows].sum(axis=2)

    def support(self):
        return _enumerated_support(self)


def _prefix_tree(pos: np.ndarray, m: int):
    """The prefix tree of a block of menus, laid out for ``MallowsModel.pick_rows``.

    ``pos`` is (B, k), each row a menu's center positions in increasing
    order. The tree's nodes are the runs of adjacent rows that share a
    prefix, so rows in lexicographic order share every common prefix. A
    node is born at the step that inserts its last item and is needed
    until the step that spawns its last child; a whole menu is needed to
    the end. Nodes are listed by birth and, within a birth, by length, so
    the nodes born at a step are a contiguous run and so are those alive
    across it (with some dead ones among them). Returns the number of
    nodes, each row's whole-menu node, and per step from the first birth:
    the step, the first node born at it, the first such node with a parent,
    the first node born after it, the first node still needed after it, and
    the parents and (node * k + slot) cells of that step's nodes with a
    parent. One menu's tree is a chain, written out directly with slices in
    place of index arrays; a block's is built with array operations and
    cached.
    """
    B, k = pos.shape
    if B == 1:
        # one menu: a chain whose node j is born at its (j + 1)-th position
        p = pos[0].tolist() + [m]
        plan = [(p[0], 0, 1, 1, 0, None, None)]
        for j in range(1, k + 1):
            plan += [(t, j, j, j, j - 1, None, None) for t in range(p[j - 1] + 1, p[j])]
            if j < k:
                plan.append((p[j], j, j, j + 1, j, slice(j - 1, j), slice(j * (k + 1), j * (k + 1) + 1)))
        return k, slice(k - 1, k), plan
    return _shared_prefixes(m, k, pos.tobytes())


@lru_cache(maxsize=64)
def _shared_prefixes(m: int, k: int, block: bytes):
    """``_prefix_tree`` of a block of several menus, given as the bytes of its
    positions: the tree depends on nothing else, so blocks that recur (every
    accuracy of one population, every call over the same menus) reuse it."""
    pos = np.frombuffer(block, dtype=np.intp).reshape(-1, k)
    B = len(pos)
    starts = np.ones((k, B), dtype=bool)  # starts[j, b]: row b starts a prefix of j + 1 items
    starts[:, 1:] = np.logical_or.accumulate(pos[1:] != pos[:-1], axis=1).T
    flat = starts.ravel()
    ids = np.cumsum(flat) - 1
    nodes = np.flatnonzero(flat)  # node (j, b) as j * B + b, shorter prefixes first
    at = np.append(pos.T.ravel(), np.full(B, m))  # at[n + B]: the next position in n's row
    death = np.maximum.reduceat(at[B:], nodes)  # its last child's birth, or m for a whole menu
    key = at[nodes] * k + nodes // B  # birth, then length - 1, the last item's slot
    by_birth = np.argsort(key)
    key, death = key[by_birth], death[by_birth]
    where = np.empty_like(by_birth)
    where[by_birth] = np.arange(len(nodes))
    parent = where[ids[nodes[by_birth] - B]]  # junk for one-item prefixes, never read
    target = np.arange(len(nodes)) * k + key % k
    born, deep = np.searchsorted(key, np.arange(m + 1)[:, None] * k + (0, 1)).T.tolist()
    live = np.searchsorted(np.maximum.accumulate(death), np.arange(m), side="right").tolist()
    rows = where[ids[(k - 1) * B :]]
    for array in (parent, target, rows):
        array.setflags(write=False)  # shared by every caller of the cached tree
    plan = tuple(
        (t, born[t], deep[t], born[t + 1], live[t], parent[deep[t] : born[t + 1]], target[deep[t] : born[t + 1]])
        for t in range(key[0] // k, m)
    )
    return len(nodes), rows, plan


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

    def perm_prob(self, r: Ranking) -> float:
        """Sequential-choice probability of the exact ranking ``r``."""
        if r.m != self.m:
            raise DimensionError(f"ranking over {r.m} items, model over {self.m}")
        u = self._scaled()[list(r.order)]
        total = 0.0
        for j in range(self.m):
            tail = u[j:]
            total += u[j] - _logsumexp(tail)
        return math.exp(total)

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j]; the Gumbel race makes this a logistic in the value gap."""
        if i == j:
            raise DomainError("pairwise comparison needs two distinct items")
        _check_items(self.m, (i, j))
        return _logistic((self.item_values[i] - self.item_values[j]) / self.beta)

    def topk_set_prob(self, items) -> float:
        """P[``items`` is the top-|items| set], by a DP over its subsets.

        ``f(T)``, the chance that the first |T| picks are the set T, obeys
        ``f(T) = sum_{x in T} f(T - x) * P[x is picked next after T - x]``;
        each pick probability is a softmax over the items not yet picked,
        normalized by their own log-sum-exp rather than by the total minus
        the picked part, which would cancel. O(2^k k + 2^k m) for k items.
        """
        items = sorted(_check_items(self.m, items))
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

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n rankings as (n, m) orders: values plus one (n, m) Gumbel draw, sorted."""
        noisy = np.asarray(self.item_values) + rng.gumbel(0.0, self.beta, size=(n, self.m))
        return np.argsort(-noisy, axis=1, kind="stable")

    def support(self):
        return _enumerated_support(self)


def _logsumexp(u: np.ndarray) -> float:
    hi = float(np.max(u))
    return hi + math.log(float(np.sum(np.exp(u - hi))))


def _logistic(x: float) -> float:
    """``1 / (1 + e^-x)``, without overflow at either tail."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


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
        items = _check_items(self.m, items)
        k = len(items)
        return math.fsum(p for r, p in self.entries if r.top(k) == items)

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j], for either orientation of the pair."""
        if i == j:
            raise DomainError("pairwise comparison needs two distinct items")
        _check_items(self.m, (i, j))
        return math.fsum(p for r, p in self.entries if r.positions[i] < r.positions[j])

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

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n rankings as (n, m) orders, by one ``rng.choice`` over the entries."""
        idx = rng.choice(len(self.entries), size=n, p=[p for _, p in self.entries])
        return np.array([r.order for r, _ in self.entries], dtype=np.intp)[idx]

    def support(self):
        return iter(self.entries)


def enumerate_event_prob(model, predicate) -> float:
    """Exact probability of ``predicate(ranking)`` by summing over the support.

    The universal brute-force oracle: valid for any model kind, but full
    permutation enumeration is refused above ``ENUMERATION_CAP`` items.
    """
    return math.fsum(p for r, p in model.support() if predicate(r))


def pairwise_matrix(model) -> np.ndarray:
    """Matrix P with P[i, j] = P[i before j] (diagonal zero)."""
    m = model.m
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            p = model.pairwise_prob(i, j)
            out[i, j] = p
            out[j, i] = 1.0 - p
    return out


def policy_ranking_model(policy: AlgorithmPolicy) -> MallowsModel | ExplicitModel:
    """The ranking model behind a policy; at accuracy NOISELESS (inf) it is the point mass on its center."""
    if policy.is_noiseless:
        return ExplicitModel(((policy.center, 1.0),))
    return MallowsModel(policy.center, policy.accuracy)


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
    """Exact distribution over the menus a policy presents.

    A noiseless policy's one menu is given directly, not through its point
    mass's ``model_menu_distribution``, which enumerates all C(m, k) menus:
    so a fixed menu still scores above ``MENU_ENUMERATION_CAP``.
    """
    if policy.is_noiseless:
        return {policy.fixed_menu(): 1.0}
    return model_menu_distribution(policy_ranking_model(policy), policy.menu_size)
