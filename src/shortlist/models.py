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
  first-item law, ``topk_law``, its bits over rows of (C, k) intp menus,
  and ``pairwise_prob``, P[i before j] in either order;
- ``ranks``, each item's position in the model's own order (the center for
  Mallows and Plackett-Luce, item order for explicit models), and
  ``pick_rows``, the pick probabilities of a block of menus given as rows
  of increasing positions in that order. Items are mapped to positions only
  where menus enter: ``choice.choice_table`` and ``choice.choice_dist`` for
  menus of items, and ``collab.center_menu_rows`` for a menu table.

A brute-force enumeration oracle sits alongside them so every closed form
can be cross-checked at desk scale.

Two different normalizers both get called "Z" in the Mallows literature; here
``row_z(j)`` is the single-row sum ``1 + e^{-phi} + ... + e^{-phi (j-1)}``, and
the full product ``row_z(1) * ... * row_z(m)`` is the one whose log
``perm_prob`` subtracts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionError, DomainError
from .rankings import AlgorithmPolicy, Ranking, check_menu_size, check_ranking_model, check_universe, is_integer, is_number, kendall_tau

ENUMERATION_CAP = 7
MENU_ENUMERATION_CAP = 10**6


def row_z(j: int, phi: float) -> float:
    """Single-row Mallows normalizer ``sum_{t=0}^{j-1} exp(-phi t)``."""
    if phi == 0.0:
        return float(j)
    return math.expm1(-phi * j) / math.expm1(-phi)


def _check_items(m: int, items) -> frozenset:
    """``items`` as a set: the one item rule wherever items enter a model's query, a menu or a MIP.

    Refused when empty, not integers or repeated (DomainError) or outside ``0..m-1`` (DimensionError).
    """
    given = tuple(items)
    if not given:
        raise DomainError("item set must be nonempty")
    if not all(map(is_integer, given)):
        raise DomainError(f"items must be integers, got {list(given)}")
    if min(given) < 0 or max(given) >= m:
        raise DimensionError(f"items {sorted(given)} outside 0..{m - 1}")
    items = frozenset(given)
    if len(items) != len(given):
        raise DomainError(f"items must be distinct, got {list(given)}")
    return items


def _check_menus(m: int, menus) -> np.ndarray:
    """``menus`` as a (B, k) intp array under ``_check_items``'s rule, by array ops on an integer ndarray."""
    # a list's items are checked by type (one item of each type) before numpy reads a bool as 0 or 1
    listed = () if isinstance(menus, np.ndarray) else np.asarray(menus, dtype=object).ravel().tolist()
    if not all(map(is_integer, {type(x): x for x in listed}.values())):
        raise DomainError("menu items must be integers")
    menus = np.asarray(menus)
    if menus.size and not np.issubdtype(menus.dtype, np.integer):
        raise DomainError(f"menu items must be integers, got an array of {menus.dtype}")
    menus = menus.astype(np.intp, copy=False)
    if menus.ndim != 2:
        raise DimensionError(f"menus must be a 2-d array, got shape {menus.shape}")
    if menus.shape[1] == 0:
        raise DomainError("menu must be nonempty")
    if menus.size and (menus.min() < 0 or menus.max() >= m):
        raise DimensionError(f"menus contain items outside 0..{m - 1}")
    if menus.shape[1] > 1 and (np.diff(np.sort(menus, axis=1), axis=1) == 0).any():
        raise DomainError("menu items must be distinct")
    return menus


@lru_cache(maxsize=256)
def _row_z_values(m: int, phi: float) -> tuple[float, ...]:
    return tuple(row_z(j, phi) for j in range(1, m + 1))


@lru_cache(maxsize=256)
def _insertion_rows(m: int, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Insertion probabilities of every step as read-only (m, m) arrays, and the rows per step.

    Row ``t - 1`` of ``probs`` holds ``p_{t,s}`` for ``s = 1..t`` and zeros
    after, from one ``np.exp`` over the step x slot grid; ``gammas`` are
    their running sums and ``keeps = 1 - gammas``, the chance that an
    earlier item at position ``s`` stays there. The fourth value is
    ``_step_rows`` of this one accuracy, the per-step rows
    ``_mallows_pick_rows`` reads.
    """
    t = np.arange(m, dtype=float)
    gaps = np.tril(np.subtract.outer(t, t))  # t - s on and below the diagonal
    with np.errstate(over="ignore"):  # phi times a gap may round to inf; exp(-inf) = 0 is right
        probs = np.tril(np.exp(-phi * gaps))
    probs /= np.array(_row_z_values(m, phi))[:, None]
    gammas = np.cumsum(probs, axis=1)
    keeps = 1.0 - gammas
    for array in (probs, gammas, keeps):
        array.setflags(write=False)
    return probs, gammas, keeps, _step_rows(probs[:, None], gammas[:, None], keeps[:, None])


def _step_rows(probs: np.ndarray, gammas: np.ndarray, keeps: np.ndarray) -> tuple:
    """Per step, the rows of (m, phis, m) insertion arrays that ``_mallows_pick_rows`` reads.

    Each is ``probs`` forwards and backwards, then ``gammas`` without its
    last entry and ``keeps``, both shaped to broadcast over a state's slots.
    """
    return tuple(zip(probs, probs[:, :, ::-1], gammas[:, :, None, :-1], keeps[:, :, None]))


def _mallows_pick_rows(positions: np.ndarray, m: int, phis) -> np.ndarray:
    """Mallows pick probabilities of a (B, k) intp block of menus at every accuracy, shape (phis, B, k).

    The insertion DP over center positions of ``m`` items, run once for all
    ``phis`` (accuracies as ``MallowsModel`` holds them) and once per
    distinct prefix of the block's menus (``_prefix_tree``); each row holds
    a menu's increasing center positions. Step t inserts the item at center
    position t - 1. A state holds, per accuracy, W[j, s - 1]: the
    probability that the prefix's j-th item is inserted, leads the prefix
    and sits at position ``s`` of the partial permutation; its last slot
    holds the front-runner's mass, whichever item it is. After step t it
    depends on a menu only through its items at positions below t, so menus
    with a common prefix share one state until their next items. Each step
    gives every live state the keep/shift update of an item outside its
    prefix, and spawns each prefix that ends in the step's item from its
    parent's state: the item leads at ``s`` with probability ``p_{t,s}``
    times the front-runner mass at ``s`` or behind (1 for a first item), and
    an earlier front-runner keeps the lead only where the item lands behind
    it. Only prefixes shorter than k are states. A whole menu is read at the
    step of its last item, from its parent's state: its earlier items keep
    the lead with ``1 - gamma_{t,s}`` and its last item takes it with
    ``gamma_{t,s}`` at the front-runner's position. Later steps only move
    positions, never the leader, so the plan stops at the block's last item.
    Every operation acts on one (state, accuracy) row at a time, so a row
    has the same bits alone, in any block and beside any set of accuracies.
    A block of B menus has at most (k - 1) B states of k m floats per
    accuracy, and a step costs O(k m) per live state and accuracy. A
    full-universe menu (k = m) is the first-item law e^{-phi j} / row_z(m),
    read off the last insertion row in O(m).
    """
    B, k = positions.shape
    if k == 1:
        return np.ones((len(phis), B, 1))
    if k == m:
        firsts = np.array([_insertion_rows(m, phi)[0][m - 1, ::-1] for phi in phis])
        return np.repeat(firsts[:, None], B, axis=1)
    if len(phis) == 1:
        steps = _insertion_rows(m, phis[0])[3]
    else:
        steps = _step_rows(*(np.stack(rows, axis=1) for rows in zip(*(_insertion_rows(m, phi)[:3] for phi in phis))))
    top = k - 1  # a prefix's front-runner mass
    nodes, plan = _prefix_tree(positions, m)
    W = np.zeros((nodes, len(phis), k, m))
    out = np.empty((B, len(phis), k))
    span = None
    for t, a, c, b, lo, parents, targets, reads in plan:
        p, p_back, g, kp = steps[t]
        if reads is not None:
            # whole menus ending in the step's item: the item leads where it
            # lands at or ahead of the front-runner, whose last position is
            # still empty
            rows, sources = reads
            X = W[sources]
            X[:, :, :top] *= kp
            X[:, :, top:, :-1] *= g
            out[rows] = X.sum(axis=3)
        if b > c:
            # prefixes ending in the step's item, spawned the same way
            W[c:b] = W[parents]
            X = W[c:b]
            fresh = p_back * X[:, :, top, ::-1].cumsum(axis=2)  # by position from the back
            X *= kp
            X[:, :, top, ::-1] += fresh
            W[targets] = fresh[:, :, ::-1]
        if a > lo:
            # an item outside the prefix: the front-runner stays, or moves back one place
            if span != (lo, a):
                span = (lo, a)
                live = W[lo:a]
                ahead, behind = live[..., :-1], live[..., 1:]
            moved = g * ahead
            live *= kp
            behind += moved
        if c > a:
            # a one-item prefix leads wherever its item lands
            W[a:c, :, 0] = W[a:c, :, top] = p
    return out.transpose(1, 0, 2)


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
        if not is_number(self.phi):
            raise DomainError(f"accuracy parameter phi must be a number, got {self.phi!r}")
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
        check_universe(self, r)
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

    def topk_law(self, menus: np.ndarray) -> np.ndarray:
        """``topk_set_prob`` of each row of (C, k) intp item menus, once per sum of center positions.

        P(S) depends on S only through that sum, which takes at most k (m - k) + 1 values.
        """
        menus = _check_menus(self.m, menus)
        sums = np.asarray(self.ranks, dtype=np.intp)[menus].sum(axis=1)
        _, first, back = np.unique(sums, return_index=True, return_inverse=True)
        return np.array([self.topk_set_prob(menus[i].tolist()) for i in first.tolist()])[back]

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

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of a (B, k) intp block of menus as increasing center positions.

        ``_mallows_pick_rows`` at this one accuracy: the insertion DP over
        the block's distinct prefixes, each menu read at the step of its
        last item, with the same bits alone, in any block and beside any
        other accuracies.
        """
        return _mallows_pick_rows(menus, self.m, (self.phi,))[0]

    def support(self):
        return _enumerated_support(self)


def _prefix_tree(pos: np.ndarray, m: int):
    """The prefix tree of a block of menus, laid out for ``_mallows_pick_rows``.

    ``pos`` is (B, k) with 1 < k < m, each row a menu's center positions in
    increasing order. The tree's nodes are the runs of adjacent rows that
    share a prefix shorter than k, so rows in lexicographic order share
    every common prefix; a whole menu is no node. A node is born at the
    step that inserts its last item and is needed until the step that
    spawns its last child, and a whole menu is read at the step of its last
    item. Nodes are listed by birth and, within a birth, by length, so the
    nodes born at a step are a contiguous run and so are those alive across
    it (with some dead ones among them). Returns the number of nodes and
    per step from the first birth to the last read: the step, the first
    node born at it, the first such node with a parent, the first node born
    after it, the first node still needed after it, the parents of that
    step's nodes with a parent and the (node, slot) index of their last
    item, and the rows read at the step with their parents (None when no
    row is). One menu's tree is a chain, written out directly with slices
    in place of index arrays; a block's is built with array operations and
    cached.
    """
    B, k = pos.shape
    if B == 1:
        # one menu: a chain whose node j is born at its (j + 1)-th position
        p = pos[0].tolist()
        plan = [(p[0], 0, 1, 1, 0, None, None, None)]
        for j in range(1, k):
            plan += [(t, j, j, j, j - 1, None, None, None) for t in range(p[j - 1] + 1, p[j])]
            if j < k - 1:
                plan.append((p[j], j, j, j + 1, j, slice(j - 1, j), (slice(j, j + 1), slice(None), j), None))
        plan.append((p[k - 1], k - 1, k - 1, k - 1, k - 1, None, None, (slice(0, 1), slice(k - 2, k - 1))))
        return k - 1, plan
    return _shared_prefixes(m, k, pos.tobytes())


@lru_cache(maxsize=64)
def _shared_prefixes(m: int, k: int, block: bytes):
    """``_prefix_tree`` of a block of several menus, given as the bytes of its
    positions: the tree depends on nothing else, so blocks that recur (every
    call over the same menus, at any accuracies) reuse it."""
    pos = np.frombuffer(block, dtype=np.intp).reshape(-1, k)
    B = len(pos)
    L = k - 1  # the longest prefix that is a node
    starts = np.ones((L, B), dtype=bool)  # starts[j, b]: row b starts a prefix of j + 1 items
    starts[:, 1:] = np.logical_or.accumulate(pos[1:, :L] != pos[:-1, :L], axis=1).T
    flat = starts.ravel()
    ids = np.cumsum(flat) - 1
    nodes = np.flatnonzero(flat)  # node (j, b) as j * B + b, shorter prefixes first
    at = pos.T.ravel()  # at[n + B]: the next position in n's row
    death = np.maximum.reduceat(at[B:], nodes)  # its last child's birth
    key = at[nodes] * L + nodes // B  # birth, then length - 1, the last item's slot
    by_birth = np.argsort(key)
    key, death = key[by_birth], death[by_birth]
    where = np.empty_like(by_birth)
    where[by_birth] = np.arange(len(nodes))
    parent = where[ids[nodes[by_birth] - B]]  # junk for one-item prefixes, never read
    slot = key % L
    index = np.arange(len(nodes))
    born, deep = np.searchsorted(key, np.arange(m + 1)[:, None] * L + (0, 1)).T.tolist()
    live = np.searchsorted(np.maximum.accumulate(death), np.arange(m), side="right").tolist()
    last = pos[:, L]
    by_read = np.argsort(last, kind="stable")
    read = np.searchsorted(last[by_read], np.arange(m + 1)).tolist()
    source = where[ids[(L - 1) * B :]][by_read]  # each row's parent, in read order
    for array in (parent, slot, index, by_read, source):
        array.setflags(write=False)  # shared by every caller of the cached tree
    plan = tuple(
        (
            t, born[t], deep[t], born[t + 1], live[t], parent[deep[t] : born[t + 1]],
            (index[deep[t] : born[t + 1]], slice(None), slot[deep[t] : born[t + 1]]),
            (by_read[read[t] : read[t + 1]], source[read[t] : read[t + 1]]) if read[t + 1] > read[t] else None,
        )
        for t in range(key[0] // L, int(last.max()) + 1)
    )
    return len(nodes), plan


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
    # topk_set_prob's subset memo: item bitmask -> log-normaliser of the
    # items outside it, and item bitmask -> prefix-set probability f(T)
    _subsets: tuple[dict, dict] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = tuple(self.item_values)
        if not all(map(is_number, values)) or not is_number(self.beta):
            raise DomainError(f"item values and noise scale beta must be numbers, got {values} and {self.beta!r}")
        values = tuple(map(float, values))
        beta = float(self.beta)
        if len(values) < 1:
            raise DomainError("need at least one item value")
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"item values must be finite: {values}")
        if not (math.isfinite(beta) and beta > 0):
            raise DomainError(f"noise scale beta must be positive and finite, got {beta!r}")
        if not all(math.isfinite(v / beta) for v in values):
            raise DomainError(f"item values divided by noise scale beta={beta!r} overflow")
        object.__setattr__(self, "item_values", values)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "center", _sorted_by_value(values))
        object.__setattr__(self, "_subsets", ({}, {0: 1.0}))

    @property
    def m(self) -> int:
        return len(self.item_values)

    def _scaled(self) -> np.ndarray:
        return np.asarray(self.item_values, dtype=float) / self.beta

    def perm_prob(self, r: Ranking) -> float:
        """Sequential-choice probability of the exact ranking ``r``."""
        check_universe(self, r)
        u = self._scaled()[list(r.order)]
        total = 0.0
        for j in range(self.m):
            tail = u[j:]
            total += u[j] - _logsumexp(tail)
        return math.exp(total)

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j]; the Gumbel race makes this a logistic in the value gap."""
        _check_items(self.m, (i, j))
        return _logistic((self.item_values[i] - self.item_values[j]) / self.beta)

    def topk_set_prob(self, items) -> float:
        """P[``items`` is the top-|items| set], by a DP over its subsets.

        ``f(T)``, the chance that the first |T| picks are the set T, obeys
        ``f(T) = sum_{x in T} f(T - x) * P[x is picked next after T - x]``;
        each pick probability is a softmax over the items not yet picked,
        normalized by their own log-sum-exp rather than by the total minus
        the picked part, which would cancel. Each subset's log-normaliser
        and f(T) are kept in a per-model memo, so a law over many sets (as
        in ``model_menu_distribution``) computes each subset once: the
        missing log-normalisers in one batch, each missing f(T) by one
        ``math.fsum`` in item order, the same bits as a cold model. The memo
        lives as long as the model, one entry per subset of a queried set. A
        cold query costs O(2^k k + 2^k m) for k items and a warm one O(2^k);
        CapacityError when its 2^k m table exceeds ``MENU_ENUMERATION_CAP``.
        """
        items = sorted(map(int, _check_items(self.m, items)))
        k = len(items)
        if (1 << k) * self.m > MENU_ENUMERATION_CAP:
            raise CapacityError(f"top-{k} set law over 2^{k} subsets x {self.m} items exceeds the cap")
        log_norm, f = self._subsets
        bits = [1 << x for x in items]
        masks = [0]  # masks[S]: the item bitmask of S, whose bit i stands for items[i]
        for bit in bits:
            masks += [mask | bit for mask in masks]
        missing = [S for S, mask in enumerate(masks[:-1]) if mask not in log_norm]
        if missing:
            # taken[row, y]: item y is in that row's proper subset of ``items``;
            # the full set is never a denominator
            taken = np.zeros((len(missing), self.m), dtype=bool)
            taken[:, items] = np.array(missing)[:, None] >> np.arange(k) & 1
            rest = np.where(taken, -np.inf, self._scaled())
            hi = rest.max(axis=1, keepdims=True)
            rows = (hi + np.log(np.exp(rest - hi).sum(axis=1, keepdims=True)))[:, 0]
            log_norm.update(zip((masks[S] for S in missing), rows.tolist()))
        u = self._scaled().tolist()
        for T in masks[1:]:
            if T not in f:
                f[T] = math.fsum(
                    f[T ^ bit] * math.exp(u[x] - log_norm[T ^ bit]) for x, bit in zip(items, bits) if T & bit
                )
        return f[masks[-1]]

    def topk_law(self, menus: np.ndarray) -> np.ndarray:
        """``topk_set_prob`` of each row of (C, k) intp item menus, sharing its subset memo."""
        return np.array([self.topk_set_prob(menu) for menu in _check_menus(self.m, menus).tolist()])

    @property
    def ranks(self) -> tuple[int, ...]:
        """Each item's center position: the order ``pick_rows`` takes rows in."""
        return self.center.positions

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of (B, k) menus as increasing center positions.

        A softmax of their scaled values, summed in center order alone or in a batch.
        """
        u = self._scaled()[list(self.center.order)][menus]
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
        entries = tuple(self.entries)
        if not all(is_number(p) for _, p in entries):
            raise DomainError(f"support probabilities must be numbers, got {[p for _, p in entries]}")
        entries = tuple((r, float(p)) for r, p in entries)
        if not entries:
            raise DomainError("explicit model needs a nonempty support")
        check_universe(*(r for r, _ in entries))
        if any(not (math.isfinite(p) and p > 0) for _, p in entries):
            raise DomainError("support probabilities must be finite and positive")
        total = math.fsum(p for _, p in entries)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"support probabilities sum to {total!r}, expected 1")
        if len({r.order for r, _ in entries}) != len(entries):
            raise DomainError("support rankings must be distinct")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return self.entries[0][0].m

    def perm_prob(self, r: Ranking) -> float:
        check_universe(self, r)
        for ranking, p in self.entries:
            if ranking == r:
                return p
        return 0.0

    def topk_set_prob(self, items) -> float:
        items = _check_items(self.m, items)
        k = len(items)
        return math.fsum(p for r, p in self.entries if r.top(k) == items)

    def topk_law(self, menus: np.ndarray) -> np.ndarray:
        """``topk_set_prob`` of each row of (C, k) intp item menus."""
        return np.array([self.topk_set_prob(menu) for menu in _check_menus(self.m, menus).tolist()])

    def pairwise_prob(self, i: int, j: int) -> float:
        """P[i before j], for either orientation of the pair."""
        _check_items(self.m, (i, j))
        return math.fsum(p for r, p in self.entries if r.positions[i] < r.positions[j])

    @property
    def ranks(self) -> tuple[int, ...]:
        """Item order, the order ``pick_rows`` takes rows in."""
        return tuple(range(self.m))

    def pick_rows(self, menus: np.ndarray) -> np.ndarray:
        """Pick probabilities of (B, k) menus as increasing items, summed over the support in entry order."""
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
    ``check_menu_size``'s DomainError, and CapacityError when C(m, k) exceeds
    ``MENU_ENUMERATION_CAP``, before any menu is built.
    """
    check_menu_size(k, m)
    if math.comb(m, k) > MENU_ENUMERATION_CAP:
        raise CapacityError(
            f"C({m},{k}) = {math.comb(m, k)} menus exceeds the exact-enumeration cap"
        )
    return list(itertools.combinations(range(m), k))


def model_menu_distribution(model, k: int) -> dict[frozenset[int], float]:
    """Distribution of the top-``k`` set over all k-subsets: the model's ``topk_law`` of ``k_menus`` as a dict."""
    check_ranking_model(model)
    menus = k_menus(model.m, k)
    return dict(zip(map(frozenset, menus), model.topk_law(np.array(menus, dtype=np.intp)).tolist()))
