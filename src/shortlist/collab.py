"""Pick distributions, menu utility tables and expected utilities for solo and curated humans; menus are ``k_menus`` arrays.

Curators pass ``rankings.check_ranking_model``, policies ``rankings.check_policy``, rows ``models._integer_rows``, centers ``center_menu_rows``.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .choice import PickDistribution, choice_dist, choice_table
from .errors import DimensionError, DomainError
from .models import DP_STATE_FLOATS, MallowsModel, _check_menus, _integer_rows, _mallows_pick_rows, k_menus, menu_block, policy_ranking_model
from .rankings import AlgorithmPolicy, HumanType, Population, check_policy, check_population, check_ranking_model, check_universe, is_integer, is_number

MC_BLOCK = 1 << 14  # Monte Carlo samples drawn per pass; bounds the sample arrays
PRODUCT_BLOCK = 1 << 16  # (center, menu) pairs per pass of center_utilities; bounds its memory


def _pick_law(h: HumanType, blocks) -> PickDistribution:
    """Pick distribution when the menu is drawn from ``blocks``, (menus, law) pairs of (C, k) menus of one size.

    Each block's menus of nonzero probability are scored in one
    ``choice_table`` call. An item's probability is one ``math.fsum`` of its
    pick masses p(S) P(x | S): exactly rounded, whatever the law's order.
    The support is every item of a menu with nonzero probability.
    """
    items, masses = [np.empty(0, dtype=np.intp)], [np.empty(0)]  # an empty law is PickDistribution's error
    for menus, law in blocks:
        keep = law != 0.0
        items.append(menus[keep].ravel())
        masses.append((choice_table(h.noise, menus[keep]) * law[keep, None]).ravel())
    items = np.concatenate(items)
    order = np.argsort(items, kind="stable")  # each item's masses, gathered in law order
    keys, starts = np.unique(items[order], return_index=True)
    flat = np.concatenate(masses)[order].tolist()
    bounds = starts.tolist() + [len(flat)]
    return PickDistribution({x: math.fsum(flat[i:j]) for x, i, j in zip(keys.tolist(), bounds, bounds[1:])})


def joint_pick_from_menus(h: HumanType, menus: dict[frozenset[int], float]) -> PickDistribution:
    """Pick distribution when the menu is drawn from the dict law ``menus``: ``_pick_law`` of its menus by size, checked by ``_check_menus``."""
    if not isinstance(menus, dict):
        raise DomainError(f"a menu law must be a dict of menus to probabilities, got {type(menus).__name__}")
    # is_number reads only a value's type, so one value of each type stands for all
    if not all(map(is_number, {type(p): p for p in menus.values()}.values())):
        raise DomainError("menu probabilities must be numbers")
    by_size: dict[int, list] = {}
    for menu, p_menu in menus.items():
        by_size.setdefault(len(menu), []).append((tuple(menu), p_menu))
    blocks = [(_check_menus(h.m, [s for s, _ in law]), np.array([p for _, p in law])) for law in by_size.values()]
    return _pick_law(h, blocks)


def joint_pick_dist(h: HumanType, a: AlgorithmPolicy) -> PickDistribution:
    """Exact pick distribution of the human-algorithm system.

    A noisy policy's ``topk_law`` over ``k_menus`` is scored by ``_pick_law``
    and raises CapacityError above ``MENU_ENUMERATION_CAP`` (use
    ``mc_joint_pick_dist`` then); a noiseless policy's fixed menu is scored
    by ``choice_dist`` at any C(m, k).
    """
    check_policy(a)
    check_universe(h, a)
    if a.is_noiseless:
        return choice_dist(h.noise, a.fixed_menu())
    menus = k_menus(h.m, a.menu_size)
    return _pick_law(h, [(menus, policy_ranking_model(a).topk_law(menus))])


def mc_joint_pick_dist(
    h: HumanType, a: AlgorithmPolicy, samples: int, rng: np.random.Generator
) -> PickDistribution:
    """Monte-Carlo estimate of the joint pick distribution.

    Each sample draws an algorithm menu and an independent human ranking;
    per-item standard error is at most ``1 / (2 sqrt(samples))``. The menus,
    as top sets of ``policy_ranking_model``, and then the rankings are drawn
    through ``sample_many``, ``MC_BLOCK`` samples at a time.
    """
    if not is_integer(samples) or samples < 1:
        raise DomainError(f"need an integer number of samples, at least one, got {samples!r}")
    check_policy(a)
    check_universe(h, a)
    model = policy_ranking_model(a)
    counts = np.zeros(h.m, dtype=np.int64)
    for lo in range(0, samples, MC_BLOCK):
        n = min(MC_BLOCK, samples - lo)
        menus = model.sample_many(rng, n)[:, : a.menu_size]
        orders = h.noise.sample_many(rng, n)
        positions = np.empty_like(orders)
        np.put_along_axis(positions, orders, np.arange(h.m), axis=1)
        first = np.argmin(np.take_along_axis(positions, menus, axis=1), axis=1)
        counts += np.bincount(menus[np.arange(n), first], minlength=h.m)
    return PickDistribution({x: c / samples for x, c in enumerate(counts.tolist()) if c})


def expected_utility(dist: PickDistribution, h: HumanType) -> float:
    """Expected value of the picked item under the human's own values."""
    return math.fsum(p * h.value_of(item) for item, p in dist.items())


def solo_utility(h: HumanType) -> float:
    return menu_utility(h, range(h.m))


def _relabelling_groups(pop: Population) -> dict:
    """Type indices keyed by (model key, value profile), in first-seen order.

    A Mallows type's model key is its phi: types of one phi differ only in
    their center, so they read one accuracy of the pick kernel
    (``models._mallows_pick_rows``), and with one value profile they are
    relabellings of one another. Any other type is its own key.
    """
    check_population(pop)
    groups: dict = {}
    for col, h in enumerate(pop):
        model = h.noise.phi if isinstance(h.noise, MallowsModel) else ("type", col)
        groups.setdefault((model, h.values.values), []).append(col)
    return groups


def solo_utilities(pop: Population) -> np.ndarray:
    """Every type's ``solo_utility``, computed once per group of ``_relabelling_groups``."""
    groups = _relabelling_groups(pop)
    solo = np.empty(pop.n)
    for cols in groups.values():
        solo[cols] = solo_utility(pop.types[cols[0]])
    return solo


def menu_utility(h: HumanType, menu) -> float:
    """Expected utility for one type when ``menu`` is always presented: ``expected_utility``'s sum, each item's value read by rank.

    ``choice_dist`` has checked the menu's items, so they are not checked again.
    """
    values, ranks = h.values.values, h.ground_truth.positions
    return math.fsum(p * values[ranks[item]] for item, p in choice_dist(h.noise, menu).items())


def menu_utility_table(pop: Population, k: int):
    """The ``models.k_menus`` array of all k-menus and their per-type utilities, shape (menus, types).

    A type's utility of a menu depends only on the menu's position set in
    its model's order (``ranks``). So a column holds the utility of every
    position set: the model's ``pick_rows`` over the C(m, k) lexicographic
    sets, each row times the type's values in that order and summed with
    ``math.fsum``, the bits of ``menu_utility``. Each group of
    ``_relabelling_groups`` shares a column. The sets are scored in blocks
    of ``models.menu_block(m, k, accuracies)`` menus, the most whose
    worst-case DP states at every accuracy fit ``DP_STATE_FLOATS``, so a
    table of up to 2^20 / ((k - 1) k m accuracies) menus is one pass: each
    block makes one ``models._mallows_pick_rows`` call for every Mallows
    accuracy in the population, with the bits of each accuracy's own
    ``pick_rows``, and any other group calls its model's ``pick_rows``. All
    types read their columns at the rows of one ``center_menu_rows`` call.
    """
    m = pop.m
    menus = k_menus(m, k)
    groups = _relabelling_groups(pop)
    heads = [pop.types[cols[0]] for cols in groups.values()]
    values = [np.array([h.value_of(x) for x in np.argsort(h.noise.ranks)]) for h in heads]
    phis = list(dict.fromkeys(h.noise.phi for h in heads if isinstance(h.noise, MallowsModel)))
    columns = np.empty((len(groups), len(menus)))
    size = menu_block(m, k, max(1, len(phis)))
    for lo in range(0, len(menus), size):
        block = menus[lo : lo + size]
        # model key -> the block's pick rows
        picks: dict = dict(zip(phis, _mallows_pick_rows(block, m, phis))) if phis else {}
        for g, (model, _) in enumerate(groups):
            if model not in picks:
                picks[model] = heads[g].noise.pick_rows(block)
            columns[g, lo : lo + len(block)] = [math.fsum(row) for row in (picks[model] * values[g][block]).tolist()]
    table = np.empty((len(menus), pop.n))
    rows = center_menu_rows(np.array([h.noise.ranks for h in pop], dtype=np.intp), k)
    for cols, column in zip(groups.values(), columns):
        table[:, cols] = column[rows[cols]].T
    return menus, table


def center_menu_rows(centers, k: int) -> np.ndarray:
    """Each k-set of ``k_menus(m, k)`` moved by each permutation, shape (centers, sets).

    Entry (c, T) is the ``k_menus`` index of the sorted images of the T-th
    set under row c of ``centers``, a (centers, m) integer array of permutations
    (the one center rule; else DomainError). For center orders it is the table
    row of the menu a policy at c presents where the identity's presents T;
    for a model's ``ranks``, the position set whose column entry menu T reads.
    """
    rule = "centers must be a 2-d integer array of permutations of 0..m-1"
    centers = _integer_rows(centers, rule)
    if centers.ndim != 2 or (np.sort(centers, axis=1) != np.arange(centers.shape[1])).any():
        raise DomainError(f"{rule}, got shape {centers.shape}")
    m = centers.shape[1]
    sets = k_menus(m, k)
    total = len(sets)
    # reflecting positions (p -> m-1-p) turns lexicographic order into reversed colexicographic
    # order, whose rank is a sum of binomials; no term of a valid set exceeds C(m, k): clip there
    binom = np.array([[min(math.comb(n, r), total) for r in range(k, 0, -1)] for n in range(m)], dtype=np.intp)
    out = np.empty((len(centers), total), dtype=np.intp)
    size = max(1, DP_STATE_FLOATS // (max(1, len(centers)) * k))  # sets per pass: (centers, sets, k) images within DP_STATE_FLOATS
    for lo in range(0, total, size):
        images = np.sort(centers[:, sets[lo : lo + size]], axis=2)
        out[:, lo : lo + images.shape[1]] = total - 1 - binom[m - 1 - images, np.arange(k)].sum(axis=2)
    return out


@lru_cache(maxsize=16)
def _k_menus_bytes(m: int, k: int) -> bytes:
    """The bytes of ``k_menus(m, k)``: a table checked once per grid accuracy builds its menu set once."""
    return k_menus(m, k).tobytes()


def check_menu_table(table) -> tuple[np.ndarray, np.ndarray]:
    """``table`` as ``menu_utility_table``'s (menus, utilities) pair, its menus an intp array: the one table rule.

    The menus, an array or a list, must be ``k_menus(m, k)`` for their width k and last item m - 1, in
    that order, and the utilities a 2-d real array of one row per menu. A non-pair, non-integer menus or
    other menus are a DomainError, menus or utilities of another shape a DimensionError. The menus are
    compared with the bytes of ``k_menus(m, k)``, cached for the last 16 menu sets.
    """
    if not isinstance(table, (tuple, list)) or len(table) != 2:
        size = f" of {len(table)}" if isinstance(table, (tuple, list)) else ""
        raise DomainError(f"a menu table must be a (menus, utilities) pair, got {type(table).__name__}{size}")
    menus, utilities = _integer_rows(table[0], "table menus must be integers"), table[1]
    if not isinstance(utilities, np.ndarray) or utilities.dtype.kind not in "fiu":
        raise DomainError(f"table utilities must be an array of numbers, got {type(utilities).__name__}")
    if menus.ndim != 2 or not menus.size or utilities.ndim != 2 or len(utilities) != len(menus):
        raise DimensionError(f"a menu table of {menus.shape} menus and {utilities.shape} utilities, expected one row per menu")
    m, k = int(menus[-1, -1]) + 1, menus.shape[1]
    if k > m or len(menus) != math.comb(m, k) or menus.tobytes() != _k_menus_bytes(m, k):
        raise DomainError(f"table menus must be every {k}-menu of {m} items in k_menus order")
    return menus, utilities


def center_utilities(table, model, rows) -> np.ndarray:
    """Expected utility of every type under a curator's menu law, at each row of ``rows``.

    ``table`` is ``menu_utility_table``'s (menus array, utilities) pair, or one with a list of menus,
    held to ``check_menu_table``, and ``model`` any curator's ranking model. With ``p`` the model's
    ``topk_law`` of the table's menus (``k_menus`` order), entry
    (c, t) is ``sum_T p[T] * utilities[rows[c, T], t]``, where ``rows[c, T]``
    is the table row of the menu the curator at c shows where ``model``
    shows its T-th menu. Identity rows (``np.arange(C(m, k))[None]``) score
    ``model`` where it stands: ``joint_utility``. For a model at the identity
    center, the centers' ``center_menu_rows`` score a Mallows policy at each
    c, or a Plackett-Luce one whose values follow center position. Each entry
    is ``math.fsum`` of its terms, and menus of zero probability are skipped.
    Returns (rows, types). Before the law is built, a model over another item
    universe than the table's, or ``rows`` not 2-d, not C(m, k) wide or not
    table rows, is a DimensionError, and a non-model or non-integer ``rows`` a DomainError.
    """
    check_ranking_model(model)
    menus, utilities = check_menu_table(table)
    m = int(menus[-1, -1]) + 1  # the last k-menu ends with the last item
    if model.m != m:
        raise DimensionError(f"a curator model over {model.m} items for a menu table over {m} items")
    rows = _integer_rows(rows, "rows must be integer table rows")
    if rows.ndim != 2:
        raise DimensionError(f"rows must be a 2-d array of table rows, got shape {rows.shape}")
    if rows.shape[1] != len(menus):
        raise DimensionError(f"rows {rows.shape[1]} menus wide for a table of C({m}, {len(menus[0])}) = {len(menus)}")
    if rows.size and (rows.min() < 0 or rows.max() >= len(menus)):
        raise DimensionError(f"rows outside the table's 0..{len(menus) - 1}")
    p_id = model.topk_law(menus)
    support = np.flatnonzero(p_id)
    weights = p_id[support, None]
    rows = rows[:, support]
    out = np.empty((len(rows), utilities.shape[1]))
    step = max(1, PRODUCT_BLOCK // len(support))
    for lo in range(0, len(rows), step):
        terms = weights * utilities[rows[lo : lo + step]]  # (centers, menus, types)
        by_entry = terms.transpose(0, 2, 1).reshape(-1, len(support)).tolist()
        out[lo : lo + len(terms)] = np.reshape([math.fsum(t) for t in by_entry], (len(terms), -1))
    return out


def joint_utility(h: HumanType, a: AlgorithmPolicy) -> float:
    """Expected utility of the human's pick from the menus the policy presents.

    The one formula for a curated type: ``center_utilities`` of the type's
    one-type ``menu_utility_table`` under ``policy_ranking_model(a)``, read at
    the identity rows. A noiseless policy's one menu is scored alone by
    ``menu_utility``, with the same bits, so it also answers where C(m, k)
    exceeds ``MENU_ENUMERATION_CAP``.
    """
    check_policy(a)
    check_universe(h, a)
    if a.is_noiseless:
        return menu_utility(h, a.fixed_menu())
    table = menu_utility_table(Population.single(h), a.menu_size)
    return float(center_utilities(table, policy_ranking_model(a), np.arange(len(table[0]))[None])[0, 0])
