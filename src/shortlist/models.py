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
can be cross-checked at desk scale. ``k_menus`` gives an enumerated menu set
its one form, the (C(m, k), k) intp array every table, law and relabelling reads.

Two different normalizers both get called "Z" in the Mallows literature; here
``row_z(j)`` is the single-row sum ``1 + e^{-phi} + ... + e^{-phi (j-1)}``, and
the full product ``row_z(1) * ... * row_z(m)`` is the one whose log
``perm_prob`` subtracts.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionError, DomainError
from .rankings import AlgorithmPolicy, Ranking, as_tuple, check_accuracy, check_menu_size, check_noise_scale, check_policy, check_ranking_model, check_universe, is_integer, is_number, kendall_tau

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
    given = as_tuple(items, "items")
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


def _integer_rows(rows, rule: str) -> np.ndarray:
    """``rows`` as an intp array, else DomainError(``rule``): the one integer pass for menus, centers and table rows.

    A list's entries are checked by type (one of each type), so numpy never reads a bool as 0 or 1 or meets a ragged row.
    """
    if not isinstance(rows, np.ndarray):
        listed = np.asarray(rows, dtype=object).ravel().tolist()
        if not all(map(is_integer, {type(x): x for x in listed}.values())):
            raise DomainError(rule)
        rows = np.asarray(rows)
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        raise DomainError(f"{rule}, got an array of {rows.dtype}")
    return rows.astype(np.intp, copy=False)


def _check_menus(m: int, menus) -> np.ndarray:
    """``menus`` as a (B, k) intp array under ``_check_items``'s rule, by array ops on ``_integer_rows``."""
    menus = _integer_rows(menus, "menu items must be integers")
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
def _insertion_rows(m: int, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Insertion probabilities of every step as read-only (m, m) arrays.

    Row ``t - 1`` of ``probs`` holds ``p_{t,s}`` for ``s = 1..t`` and zeros
    after, from one ``np.exp`` over the step x slot grid; ``gammas`` are
    their running sums and ``keeps = 1 - gammas``, the chance that an
    earlier item at position ``s`` stays there.
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
    return probs, gammas, keeps


@lru_cache(maxsize=256)
def _step_rows(m: int, phis: tuple[float, ...]) -> tuple:
    """Per step, the rows of the (m, phis, m) stacked ``_insertion_rows`` that ``_mallows_pick_rows`` reads.

    Each is ``probs`` forwards and backwards, then ``gammas`` without its
    last entry and ``keeps``, both shaped to broadcast over a state's slots.
    """
    probs, gammas, keeps = (np.stack(rows, axis=1) for rows in zip(*(_insertion_rows(m, phi) for phi in phis)))
    return tuple(zip(probs, probs[:, :, ::-1], gammas[:, :, None, :-1], keeps[:, :, None]))


# floats the states of one pass of the insertion DP may take at worst: a
# block of B menus of k items holds at most (k - 1) B prefix states of k m
# floats per accuracy, so 2^20 floats (8 MB) bound a pass's working memory
DP_STATE_FLOATS = 1 << 20


def menu_block(m: int, k: int, accuracies: int = 1) -> int:
    """Menus per pass of ``_mallows_pick_rows``: the most whose worst-case states fit ``DP_STATE_FLOATS``, at least one."""
    return max(1, DP_STATE_FLOATS // (max(1, k - 1) * accuracies * k * m))


def _shift(states, g, kp, out=None):
    """The insertion of an item outside the states' prefixes: each front-runner stays, or moves back one place.

    Into ``out`` (a block's live states, in place) or a new array (a chain's next state).
    """
    moved = g * states[..., :-1]
    out = np.multiply(states, kp, out=out)
    out[..., 1:] += moved
    return out


def _spawn(parents, p_back, kp, out=None):
    """The children of ``parents`` by the step's item, into ``out`` or a new array, and the item's lead rows.

    The item leads at ``s`` with probability ``p_{t,s}`` times the
    front-runner mass at ``s`` or behind, and an earlier front-runner keeps
    the lead only where the item lands behind it. The caller writes the lead
    rows to the item's slot.
    """
    fresh = p_back * parents[..., -1, ::-1].cumsum(axis=-1)  # by position from the back
    out = np.multiply(parents, kp, out=out)
    out[..., -1, ::-1] += fresh
    return out, fresh[..., ::-1]


def _read(parents, g, kp):
    """Pick rows of whole menus ending in the step's item, from a copy of their parents' states that it overwrites.

    The earlier items keep the lead with ``1 - gamma_{t,s}``, and the item
    takes it where it lands at or ahead of the front-runner, with
    ``gamma_{t,s}`` at the front-runner's position, whose last slot is still
    empty.
    """
    parents[..., :-1, :] *= kp
    parents[..., -1:, :-1] *= g
    return parents.sum(axis=-1)


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
    prefix (``_shift``), spawns each prefix that ends in the step's item
    from its parent's state (``_spawn``; a first item leads wherever it
    lands), and reads each whole menu that ends in it from its parent's
    state (``_read``). Only prefixes shorter than k are states. Later steps
    only move positions, never the leader, so the plan stops at the block's
    last item. Every operation acts on one (state, accuracy) row at a time,
    so a row has the same bits alone, in any block, beside any set of
    accuracies and in ``MallowsModel.pick_rows``' one-menu chain, which
    calls the same three steps. A block of B menus has at most (k - 1) B
    states of k m floats per accuracy (callers cut blocks by
    ``menu_block``), and a step costs O(k m) per live state and accuracy. A
    full-universe menu (k = m) is the first-item law e^{-phi j} / row_z(m),
    read off the last insertion row in O(m).
    """
    B, k = positions.shape
    if k == 1:
        return np.ones((len(phis), B, 1))
    if k == m:
        firsts = np.array([_insertion_rows(m, phi)[0][m - 1, ::-1] for phi in phis])
        return np.repeat(firsts[:, None], B, axis=1)
    steps = _step_rows(m, tuple(phis))
    nodes, plan = _prefix_tree(m, k, positions.tobytes())
    W = np.zeros((nodes, len(phis), k, m))
    out = np.empty((B, len(phis), k))
    span = None
    for t, a, c, b, lo, parents, targets, reads in plan:
        p, p_back, g, kp = steps[t]
        if reads is not None:
            rows, sources = reads
            out[rows] = _read(W[sources], g, kp)
        if b > c:
            W[targets] = _spawn(W[parents], p_back, kp, out=W[c:b])[1]
        if a > lo:
            if span != (lo, a):
                span = (lo, a)
                live = W[lo:a]
            _shift(live, g, kp, out=live)
        if c > a:
            # a one-item prefix leads wherever its item lands
            W[a:c, :, 0] = W[a:c, :, -1] = p
    return out.transpose(1, 0, 2)


def _chain_pick_row(pos: list[int], m: int, phi: float, chain) -> tuple[np.ndarray, tuple]:
    """The pick row of one menu of increasing center positions ``pos`` (1 < k < m), shape (1, k), and its chain.

    ``_mallows_pick_rows``' DP for one menu is a chain of states, one per
    step. ``chain`` is the previous menu's (positions, kept), where kept
    lists (step, state) pairs in step order: the states just after each of
    its first k - 1 items' steps and just before each later item's step, at
    most 2 (k - 1) arrays of (1, k, m) floats. A state after step t depends
    only on the menu's items at positions up to t, so a menu of the same
    size resumes from the latest kept state below the first center position
    where the two menus differ, and its row has the bits of a run from its
    first item. Kept arrays are never written again: each step makes a new
    state, and the returned chain keeps this menu's states.
    """
    steps = _step_rows(m, (phi,))
    last, kept = chain
    k = len(pos)
    n = 0  # kept states this menu shares
    if len(last) == k:
        differ = next((min(a, b) for a, b in zip(last, pos) if a != b), m)
        n = bisect_left([t for t, _ in kept], differ)
    if n:
        t, X = kept[n - 1]
        # the latest such state is this menu's own unless the last menu had an item at ``differ``
        kept = list(kept[:n] if t in pos[:-1] or t + 1 in pos[1:] else kept[: n - 1])
    else:
        t = pos[0]
        X = np.zeros((1, k, m))
        X[:, 0] = X[:, -1] = steps[t][0]  # a first item leads wherever it lands
        kept = [(t, X)]
    j = bisect_right(pos, t)  # the next item's slot
    while True:
        t += 1
        p, p_back, g, kp = steps[t]
        if t != pos[j]:
            X = _shift(X, g, kp)
            continue
        if kept[-1][0] != t - 1:
            kept.append((t - 1, X))
        if j == k - 1:
            return _read(X.copy(), g, kp), (tuple(pos), tuple(kept))
        X, lead = _spawn(X, p_back, kp)
        X[:, j] = lead
        kept.append((t, X))
        j += 1


@dataclass(frozen=True)
class MallowsModel:
    """Distribution over rankings with P[r] proportional to exp(-phi * d(center, r)).

    ``phi = 0`` is the uniform distribution and ``phi`` must be finite: the
    ``phi -> inf`` limit, a point mass on the center, is the policy accuracy
    ``NOISELESS`` (see ``policy_ranking_model``).
    """

    center: Ranking
    phi: float
    # the last one-menu pick_rows call's chain: its positions and kept (step, state) pairs
    _chain: tuple = field(init=False, compare=False, repr=False, default=((), ()))

    def __post_init__(self):
        check_universe(self.center)
        object.__setattr__(self, "phi", check_accuracy(self.phi, "phi"))

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
        worse = self._worse_first(abs(pos[j] - pos[i]))
        return 1.0 - worse if pos[i] < pos[j] else worse

    def _worse_first(self, n: int) -> float:
        """``pairwise_prob``'s chance that the center-worse item of a pair ``n`` center positions apart comes first."""
        zs = _row_z_values(self.m, self.phi)
        return math.exp(-self.phi * n) * sum(zs[:n]) / (zs[n - 1] * zs[n])

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
        other accuracies. One menu with 1 < k < m runs as a chain
        (``_chain_pick_row``) that resumes from the states of the model's
        last such menu: the model keeps that menu's positions and at most
        2 (k - 1) states of k m floats, the states just before and after its
        items' steps. A state after step t depends only on the items at
        positions up to t, and the chain makes the block's operations in
        the same order, so the bits do not depend on which menu came
        before. Kept states are never written again and the memo is
        replaced in one assignment, so threads sharing a model read whole
        states.
        """
        if len(menus) != 1 or not 1 < menus.shape[1] < self.m:
            return _mallows_pick_rows(menus, self.m, (self.phi,))[0]
        row, chain = _chain_pick_row(menus[0].tolist(), self.m, self.phi, self._chain)
        object.__setattr__(self, "_chain", chain)
        return row

    def support(self):
        return _enumerated_support(self)


@lru_cache(maxsize=64)
def _prefix_tree(m: int, k: int, block: bytes):
    """The prefix tree of a block of menus, laid out for ``_mallows_pick_rows``.

    ``block`` holds the bytes of a (B, k) intp array with 1 < k < m, each
    row a menu's center positions in increasing order. The tree's nodes are
    the runs of adjacent rows that share a prefix shorter than k, so rows in
    lexicographic order share every common prefix; a whole menu is no node.
    A node is born at the step that inserts its last item and is needed
    until the step that spawns its last child, and a whole menu is read at
    the step of its last item. Nodes are listed by birth and, within a
    birth, by length, so the nodes born at a step are a contiguous run and
    so are those alive across it (with some dead ones among them). Returns
    the number of nodes and per step from the first birth to the last read:
    the step, the first node born at it, the first such node with a parent,
    the first node born after it, the first node still needed after it, the
    parents of that step's nodes with a parent and the (node, slot) index of
    their last item, and the rows read at the step with their parents (None
    when no row is). It is built with array operations, one menu's chain
    included, and depends on nothing but the positions, so blocks that recur
    (every call over the same menus, at any accuracies) reuse it.
    """
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
    # item_values / beta; topk_set_prob's subset memo: item bitmask -> log-normaliser
    # of the items outside it, and item bitmask -> prefix-set probability f(T)
    _scaled_values: np.ndarray = field(init=False, compare=False, repr=False)
    _subsets: tuple[dict, dict] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = as_tuple(self.item_values, "item values")
        if not values or not all(is_number(v) and math.isfinite(v) for v in values):
            raise DomainError(f"item values must be numbers, finite and at least one, got {values}")
        values = tuple(map(float, values))
        beta = check_noise_scale(self.beta)
        scaled = np.array([v / beta for v in values])
        if not np.isfinite(scaled).all():
            raise DomainError(f"item values divided by noise scale beta={beta!r} overflow")
        object.__setattr__(self, "item_values", values)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "center", _sorted_by_value(values))
        object.__setattr__(self, "_scaled_values", scaled)
        object.__setattr__(self, "_subsets", ({}, {0: 1.0}))

    @property
    def m(self) -> int:
        return len(self.item_values)

    def perm_prob(self, r: Ranking) -> float:
        """Sequential-choice probability of the exact ranking ``r``."""
        check_universe(self, r)
        u = self._scaled_values[list(r.order)]
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
            rest = np.where(taken, -np.inf, self._scaled_values)
            hi = rest.max(axis=1, keepdims=True)
            rows = (hi + np.log(np.exp(rest - hi).sum(axis=1, keepdims=True)))[:, 0]
            log_norm.update(zip((masks[S] for S in missing), rows.tolist()))
        u = self._scaled_values.tolist()
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
        u = self._scaled_values[list(self.center.order)][menus]
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
        entries = as_tuple(self.entries, "an explicit support")
        if not all(isinstance(e, (tuple, list)) and len(e) == 2 for e in entries):
            raise DomainError("an explicit support must hold (ranking, probability) pairs")
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
    ``predicate`` must be callable (DomainError).
    """
    check_ranking_model(model)
    if not callable(predicate):
        raise DomainError(f"an event must be a callable predicate on rankings, got {type(predicate).__name__}")
    return math.fsum(p for r, p in model.support() if predicate(r))


def pairwise_matrix(model) -> np.ndarray:
    """Matrix P with P[i, j] = P[i before j]: ``pairwise_prob(i, j)`` above the diagonal, its complement below, zero on it.

    A Mallows pair depends only on its center gap, so the m - 1 values of
    ``_worse_first`` fill the matrix, with the bits of the per-pair calls.
    """
    check_ranking_model(model)
    m = model.m
    if isinstance(model, MallowsModel):
        pos = np.asarray(model.center.positions)
        gap = pos[None, :] - pos[:, None]  # > 0 where i is ahead of j in the center
        worse = np.array([0.0] + [model._worse_first(n) for n in range(1, m)])[np.abs(gap)]
        better = 1.0 - worse
        # where j is ahead: pairwise_prob(i, j) above the diagonal, 1 - pairwise_prob(j, i) below it
        return np.where(gap > 0, better, np.where(np.less.outer(range(m), range(m)), worse, 1.0 - better))
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            p = model.pairwise_prob(i, j)
            out[i, j] = p
            out[j, i] = 1.0 - p
    return out


def policy_ranking_model(policy: AlgorithmPolicy) -> MallowsModel | ExplicitModel:
    """The ranking model behind a policy; at accuracy NOISELESS (inf) it is the point mass on its center."""
    check_policy(policy)
    if policy.is_noiseless:
        return ExplicitModel(((policy.center, 1.0),))
    return MallowsModel(policy.center, policy.accuracy)


def k_menus(m: int, k: int) -> np.ndarray:
    """Every k-subset of ``0..m-1`` in lexicographic order, as a (C(m, k), k) intp array, if there are few enough.

    The one place that decides which menus can be enumerated and their one form, the array every
    table, law and relabelling reads: raises ``check_menu_size``'s DomainError, and CapacityError
    when C(m, k) exceeds ``MENU_ENUMERATION_CAP``, before any menu is built.
    """
    check_menu_size(k, m)
    count = math.comb(m, k)
    if count > MENU_ENUMERATION_CAP:
        raise CapacityError(f"C({m},{k}) = {count} menus exceeds the exact-enumeration cap")
    return np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), k)), np.intp, count * k).reshape(count, k)


def model_menu_distribution(model, k: int) -> dict[frozenset[int], float]:
    """Distribution of the top-``k`` set over all k-subsets: the model's ``topk_law`` of ``k_menus`` as a dict."""
    check_ranking_model(model)
    menus = k_menus(model.m, k)
    return dict(zip(map(frozenset, menus.tolist()), model.topk_law(menus).tolist()))
