"""Welfare-maximizing menu selection.

By the noiselessness of the optimum, the search space is k-item menus rather
than full center rankings. Exactness comes from plain enumeration or a
branch-and-bound whose admissible per-type bound uses that a menu's pick
probabilities sum to 1; the mixed-integer program is built (and exportable
in LP format) as the bridge to external solvers for larger instances.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .collab import center_utilities, check_menu_table, menu_utility, menu_utility_table, solo_utilities
from .errors import DimensionError, DomainError
from .models import MallowsModel, _check_items, _insertion_rows, pairwise_matrix, policy_ranking_model
from .rankings import AlgorithmPolicy, Population, Ranking, as_tuple, check_menu_size, check_population, check_universe, open_text
from .welfare import _welfare, uplifted, welfare_report

BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizeResult:
    """A best menu (sorted item ids), its welfare and per-type utilities, and how it was found.

    ``evaluations`` counts the menus scored: every k-menu for enumeration;
    for branch and bound, every leaf whose bound let it be scored, a leaf
    abandoned part-way included (see ``branch_and_bound_menu``). ``nodes`` is
    the number of branch-and-bound nodes bounded: every node, whether its
    bound let it in the heap or not, and each leaf of a one-slot expansion,
    scored or not; None for enumeration.
    """

    menu: tuple[int, ...]
    welfare: float
    per_type: tuple[float, ...]
    method: str
    evaluations: int
    nodes: int | None = None


class _BoundInputs(NamedTuple):
    order: tuple[int, ...]  # the search order of the items
    items: np.ndarray  # (types, m): each type's items, by descending value, ties by search position
    values: np.ndarray  # (types, m): their values
    caps: np.ndarray  # (m, types, m): caps[f, h, j] = P[type h's j-th item before f], 1 at f itself
    weights: np.ndarray


def _menu_table(pop: Population, k: int, table):
    """A caller's ``menu_utility_table(pop, k)``, held to ``check_menu_table`` and to (C(m, k), types) of k-menus, or a new one."""
    if table is None:
        return menu_utility_table(pop, k)
    check_population(pop)
    check_menu_size(k, pop.m)
    menus, utilities = check_menu_table(table)
    expected = (math.comb(pop.m, k), pop.n)
    if utilities.shape != expected or menus.shape[1] != k:
        raise DimensionError(f"menu table of shape {utilities.shape} over {menus.shape[1]}-menus, expected {expected} for k={k}")
    return menus, utilities


def _best_menu(menus, table: np.ndarray, welfare: np.ndarray, method: str) -> OptimizeResult:
    """The row of largest ``welfare``; argmax takes the first, lexicographically smallest, of ties."""
    best = int(np.argmax(welfare))
    return OptimizeResult(
        menu=tuple(map(int, menus[best])),
        welfare=float(welfare[best]),
        per_type=tuple(float(u) for u in table[best]),
        method=method,
        evaluations=len(menus),
    )


def enumerate_best_menu(pop: Population, k: int, *, table=None) -> OptimizeResult:
    """Exact argmax over all k-menus; ties go to the lexicographically smallest.

    ``table`` is ``menu_utility_table(pop, k)`` when the caller already has it.
    """
    menus, table = _menu_table(pop, k, table)
    return _best_menu(menus, table, _welfare(table, pop.weights()), "enumeration")


def _bound_inputs(pop: Population, order=None) -> _BoundInputs:
    """``_node_bound``'s tables for a search over ``order``, by default ``branch_and_bound_menu``'s.

    Each type's items are sorted once, by descending value with ties by
    search position. A node's fixed items and candidates always form a
    subsequence of the search order, so this is the stable order the pour
    takes them in at every node. ``caps[f]`` holds, in that order, the
    pairwise caps P[item before f] from ``pairwise_matrix``, with 1 where
    the item is f, so a running minimum over a menu's rows ignores the item
    itself.
    """
    m = pop.m
    values = np.asarray([[h.values[rank] for rank in h.ground_truth.positions] for h in pop])  # each item's value_of
    weights = np.asarray(pop.weights())
    if order is None:
        item_value = weights @ values
        order = sorted(range(m), key=lambda x: (-item_value[x], x))
    pairs = np.asarray([pairwise_matrix(h.noise) for h in pop])
    pairs[:, np.arange(m), np.arange(m)] = 1.0
    rows = np.arange(pop.n)[:, None]
    items = np.asarray(order, dtype=np.intp)[np.argsort(-values[:, order], axis=1, kind="stable")]
    caps = np.ascontiguousarray(pairs[rows, items].transpose(2, 0, 1))
    return _BoundInputs(tuple(order), items, values[rows, items], caps, weights)


def _node_bound(values, cap, keep) -> np.ndarray:
    """Per-type upper bound on the utility of any menu of a node's fixed items plus some of its candidates.

    ``values``, ``cap`` and ``keep`` are (types, m), each row in its type's
    ``_bound_inputs`` order. ``cap`` caps each item's pick probability by
    its weakest pairwise comparison against the fixed items (1 with none
    fixed): an item is picked from a menu no more often than it beats any
    other item of the menu. ``keep`` marks the fixed items and the
    candidates. The pick probabilities sum to 1, so per type the bound is a
    fractional knapsack: mass 1 is poured in descending value over the kept
    items, each taking at most its cap. It ignores how many candidates still
    fit, and values are nonnegative, so it over-promises and is admissible.
    All three may carry one leading axis of nodes, (nodes, types, m), for
    one bound row per node: each row is poured on its own, with the bits of
    a call for that node alone.
    """
    shape = (*keep.shape[:-1], -1)
    poured = np.minimum(cap[keep].reshape(shape).cumsum(axis=-1), 1.0)
    mass = poured.copy()
    mass[..., 1:] -= poured[..., :-1]
    return (values[keep].reshape(shape) * mass).sum(axis=-1)


def branch_and_bound_menu(pop: Population, k: int) -> OptimizeResult:
    """Exact menu optimization by best-bound branch and bound.

    Items are branched on in descending population value
    ``sum_h w_h v_h(x)`` (ties by item id), include before exclude. A node's
    bound is the weighted sum of ``_node_bound`` (a per-type knapsack of
    pick-probability mass under pairwise caps); the caps are carried down
    the tree as a running minimum over the fixed items, and each type's
    items are sorted once (``_bound_inputs``), so a node costs a few array
    operations. Open nodes wait in a heap, and the one of highest bound is
    expanded next (ties by the order they were opened in, so include before
    exclude); the search ends when that bound is below the incumbent by
    ``BOUND_SLACK`` or more, and a node is opened only if its own bound is
    not. A node with two or more free slots opens its include and exclude
    children. A node whose candidates exactly fill its slots is a leaf,
    bounded on its complete menu. A node with one free slot is expanded
    whole: each candidate completes a menu, all of them are bounded in one
    ``_node_bound`` call, and they are scored in descending bound order
    (ties by search position) while the bound still beats the incumbent.
    Such siblings share k - 1 items, so each Mallows chain resumes near its
    end. A leaf is scored one type at a time with ``menu_utility``, and
    abandoned as soon as the exactly rounded sum of the scored types'
    weighted utilities and the unscored types' weighted bounds is at most
    the incumbent minus ``BOUND_SLACK``; types whose bounds have
    over-promised most so far are scored first. A leaf scored in full gets
    the exactly rounded sum of its weighted utilities, the bits of its
    ``enumerate_best_menu`` row; since the visit order is not lexicographic,
    a leaf of equal welfare replaces the incumbent when its sorted menu is
    lexicographically smaller, and both solvers return the same menu. No
    menu table is built, so it also runs where C(m, k) exceeds
    ``MENU_ENUMERATION_CAP``.
    """
    check_population(pop)
    m = pop.m
    check_menu_size(k, m)
    order, items, values, caps, weights = _bound_inputs(pop)
    at = np.empty(m, dtype=np.intp)
    at[list(order)] = np.arange(m)
    at = at[items]  # each sorted item's search position
    types = pop.types
    w = weights.tolist()
    slack = [0.0] * len(types)  # how far each type's leaf bounds have over-promised

    best_menu: tuple[int, ...] | None = None
    best_value = -math.inf
    best_per_type: tuple[float, ...] = ()
    nodes = 0
    evaluations = 0

    def evaluate(menu: tuple[int, ...], bound):
        nonlocal best_menu, best_value, best_per_type, evaluations
        evaluations += 1
        per_type = bound.tolist()
        terms = [wh * b for wh, b in zip(w, per_type)]
        scoring = sorted(range(len(types)), key=slack.__getitem__, reverse=True)
        for h in scoring:
            u = menu_utility(types[h], menu)
            slack[h] += terms[h] - w[h] * u
            per_type[h] = u
            terms[h] = w[h] * u
            if h != scoring[-1] and math.fsum(terms) <= best_value - BOUND_SLACK:
                return
        value = math.fsum(terms)
        if value > best_value or (value == best_value and menu < best_menu):
            best_value = value
            best_menu = menu
            best_per_type = tuple(per_type)

    # open nodes as (-weighted bound, sequence, fixed items, next search position, caps, kept items, bound)
    heap: list = []
    sequence = itertools.count()

    def open_node(fixed: tuple[int, ...], next_idx: int, cap, keep):
        nonlocal nodes
        nodes += 1
        if m - next_idx == k - len(fixed):  # the candidates fill the slots: a leaf
            for x in order[next_idx:]:
                cap = np.minimum(cap, caps[x])
            fixed, next_idx = fixed + order[next_idx:], m
        bound = _node_bound(values, cap, keep)
        weighted = float(weights @ bound)
        if weighted > best_value - BOUND_SLACK:
            heapq.heappush(heap, (-weighted, next(sequence), fixed, next_idx, cap, keep, bound))

    open_node((), 0, np.ones_like(values), np.ones(values.shape, dtype=bool))
    while heap and -heap[0][0] > best_value - BOUND_SLACK:
        _, _, fixed, next_idx, cap, keep, bound = heapq.heappop(heap)
        slots = k - len(fixed)
        if slots == 0:
            evaluate(tuple(sorted(fixed)), bound)
        elif slots == 1:
            rest = order[next_idx:]
            leaf_caps = np.minimum(cap, caps[list(rest)])
            leaf_keep = (keep & (at < next_idx)) | (at == np.arange(next_idx, m)[:, None, None])
            bounds = _node_bound(np.broadcast_to(values, leaf_keep.shape), leaf_caps, leaf_keep)
            nodes += len(rest)
            weighted = bounds @ weights
            for j in np.argsort(-weighted, kind="stable").tolist():
                if weighted[j] <= best_value - BOUND_SLACK:
                    break
                evaluate(tuple(sorted(fixed + (rest[j],))), bounds[j])
        else:
            x = order[next_idx]
            open_node(fixed + (x,), next_idx + 1, np.minimum(cap, caps[x]), keep)
            open_node(fixed, next_idx + 1, cap, keep & (at != next_idx))

    assert best_menu is not None
    return OptimizeResult(
        menu=best_menu,
        welfare=best_value,
        per_type=best_per_type,
        method="branch-and-bound",
        evaluations=evaluations,
        nodes=nodes,
    )


def optimize_with_uplift(pop: Population, k: int, *, table=None) -> OptimizeResult | None:
    """Best menu among those whose noiseless policy uplifts every type.

    Returns None when no k-menu achieves uplift. ``table`` is
    ``menu_utility_table(pop, k)`` when the caller already has it.
    """
    menus, table = _menu_table(pop, k, table)
    solo = solo_utilities(pop)
    feasible = np.all(uplifted(table, solo), axis=1)
    if not feasible.any():
        return None
    welfare = np.where(feasible, _welfare(table, pop.weights()), -np.inf)
    return _best_menu(menus, table, welfare, "enumeration+uplift")


def noisy_uplift_search(pop: Population, center: Ranking, phi_grid, k: int):
    """Evaluate uplift for every accuracy on a grid, keeping the best by min gain.

    ``phi_grid`` holds accuracies in [0, inf]; ``NOISELESS`` is inf. Returns
    ``(best_accuracy, best_report, all_reports)`` where ``all_reports`` is a
    list of ``(accuracy, WelfareReport)`` in grid order and "best" maximizes
    the minimum per-type utility gain (the first of ties). One table and one
    ``solo_utilities`` serve the grid; an accuracy's joint utilities are
    ``center_utilities`` of its policy's ranking model at the identity rows,
    ``collab.joint_utility``'s formula, so each equals that type's
    ``joint_utility`` bit for bit.
    """
    phi_grid = as_tuple(phi_grid, "an accuracy grid")
    if not phi_grid:
        raise DomainError("accuracy grid must be nonempty")
    check_universe(pop, center)
    table = menu_utility_table(pop, k)
    solo = solo_utilities(pop).tolist()
    identity = np.arange(len(table[0]))[None]
    reports = []
    for phi in phi_grid:
        model = policy_ranking_model(AlgorithmPolicy(center=center, accuracy=phi, menu_size=k))
        joint = center_utilities(table, model, identity)[0]
        reports.append((phi, welfare_report(pop, solo, joint.tolist())))
    best_phi, best_report = max(reports, key=lambda item: item[1].min_gain)
    return best_phi, best_report, reports


# ---------------------------------------------------------------------------
# Mixed-integer program


@dataclass(frozen=True, eq=False)
class MipInstance:
    """A welfare-maximization MIP over menu indicator variables.

    Binary ``x_<item>`` marks menu membership. Per type ``h`` the insertion
    dynamic program is carried by two chains over (position ``s``, step
    ``t``), both 1-indexed: ``type<h>_M_<s>_<t>``, the probability that the
    front-runner (the best menu item inserted so far) sits at position
    ``s``, and ``type<h>_V_<s>_<t>``, that mass weighted by the
    front-runner's value scaled into [0, 1]. ``z`` (fresh front-runner
    mass), ``q`` (no menu item yet) and ``yM``/``yV`` (shifted mass) are
    their linearization helpers. Every variable lies in [0, 1], and the
    binaries come first. Constraints are (coefficients, sense, rhs) rows;
    the objective is maximized.
    """

    var_names: tuple[str, ...]
    constraints: tuple[tuple[dict[str, float], str, float], ...]
    objective: dict[str, float]
    m: int
    k: int
    n_types: int

    @property
    def num_variables(self) -> int:
        return len(self.var_names)

    @property
    def binaries(self) -> tuple[str, ...]:
        """The menu indicators ``x_0 .. x_{m-1}``, the first ``m`` variables."""
        return self.var_names[: self.m]


def _check_mip(mip) -> None:
    """Refuse an instance that is not a ``MipInstance`` (DomainError)."""
    if not isinstance(mip, MipInstance):
        raise DomainError(f"expected a MipInstance (see build_mip), got {type(mip).__name__}")


def build_mip(pop: Population, k: int) -> MipInstance:
    """Assemble the welfare-maximization MIP for a Mallows population.

    Each type follows the repeated insertion model of its center: step ``t``
    inserts the center's ``t``-th item at position ``s`` with probability
    ``p_{t,s}``. Every item's front-runner chain obeys the same recursion,
    so two chains per type replace one per item:

    - mass ``M(s, t)``, the chance that the front-runner is at position
      ``s`` after step ``t``;
    - value ``V(s, t)``, that mass weighted by the front-runner's
      ``u = v / v_max``: the type's values scaled into [0, 1], the bounds
      that ``solve_mip`` and ``export_lp`` give every variable.

    An earlier front-runner at ``s`` stays with probability
    ``1 - gamma_{t,s}`` and shifts from ``s - 1`` (``yM``, ``yV``: at most
    ``gamma_{t,s-1}`` times the chain and ``1 - x``) only when the inserted
    item is outside the menu. The inserted item takes the lead at ``s``
    (``z``: at most ``p_{t,s}`` times ``x`` and times the mass at positions
    ``>= s`` plus ``q``) and enters ``M`` with coefficient 1 and ``V`` with
    its ``u``. The objective is ``sum_h w_h v_max_h sum_s V(s, m)``. Mass
    only flows forward with nonnegative coefficients, so at fixed binaries
    the helpers rise to their caps and the LP value is the menu's welfare.

    Sizes: ``m + types * ((5 m^2 + 3 m) / 2 - 1)`` variables and
    ``1 + types * ((9 m^2 + m) / 2 - 1)`` constraints. Only builds the
    instance; solving is the caller's choice (see ``solve_mip`` /
    ``export_lp``).
    """
    check_population(pop)
    m = pop.m
    check_menu_size(k, m)
    for h in pop:
        if not isinstance(h.noise, MallowsModel):
            raise DomainError("the MIP requires every type's noise model to be Mallows")

    var_names: list[str] = [f"x_{i}" for i in range(m)]
    constraints: list[tuple[dict[str, float], str, float]] = []
    objective: dict[str, float] = {}

    for h_idx, h in enumerate(pop):
        model: MallowsModel = h.noise
        center = model.center.order
        probs, gammas, keeps = _insertion_rows(m, model.phi)
        v_max = h.values[0]
        prefix = f"type{h_idx}"

        def var(kind: str, s: int, t: int) -> str:
            return f"{prefix}_{kind}_{s}_{t}"

        def Q(t: int) -> str:
            return f"{prefix}_q_{t}"

        for t in range(1, m + 1):
            var_names.extend(var(kind, s, t) for kind in ("z", "M", "V") for s in range(1, t + 1))
            var_names.extend(var(kind, s, t) for kind in ("yM", "yV") for s in range(2, t + 1))
        var_names.extend(Q(t) for t in range(1, m))

        for t in range(1, m + 1):
            x_t = f"x_{center[t - 1]}"
            u_t = h.value_of(center[t - 1]) / v_max if v_max > 0 else 0.0
            for s in range(1, t + 1):
                p_ts = float(probs[t - 1, s - 1])
                # z <= p * (front-runner mass at positions >= s, + q)
                coeffs: dict[str, float] = {var("z", s, t): 1.0}
                for pos in range(s, t):
                    coeffs[var("M", pos, t - 1)] = -p_ts
                if t > 1:
                    coeffs[Q(t - 1)] = -p_ts
                constraints.append((coeffs, "<=", p_ts if t == 1 else 0.0))  # q_0 is the constant 1
                # z <= p * x: no fresh mass unless the item is in the menu
                constraints.append(({var("z", s, t): 1.0, x_t: -p_ts}, "<=", 0.0))

                for chain, fresh in (("M", 1.0), ("V", u_t)):
                    coeffs = {var(chain, s, t): 1.0}
                    if fresh:
                        coeffs[var("z", s, t)] = -fresh
                    if s <= t - 1:
                        coeffs[var(chain, s, t - 1)] = -float(keeps[t - 1, s - 1])
                    if s >= 2:
                        shift = var("y" + chain, s, t)
                        coeffs[shift] = -1.0
                        constraints.append(
                            ({shift: 1.0, var(chain, s - 1, t - 1): -float(gammas[t - 1, s - 2])}, "<=", 0.0)
                        )
                        # the shift branch only exists when the inserted item
                        # is outside the menu
                        constraints.append(({shift: 1.0, x_t: 1.0}, "<=", 1.0))
                    constraints.append((coeffs, "=", 0.0))

        for t in range(1, m):
            # q_t is 1 exactly when none of the first t items is in the menu
            earlier = [f"x_{a}" for a in center[:t]]
            constraints.extend(({Q(t): 1.0, x: 1.0}, "<=", 1.0) for x in earlier)
            constraints.append(({Q(t): 1.0, **dict.fromkeys(earlier, 1.0)}, ">=", 1.0))

        if v_max > 0:
            for s in range(1, m + 1):
                objective[var("V", s, m)] = h.weight * v_max

    constraints.append(({f"x_{i}": 1.0 for i in range(m)}, "<=", float(k)))

    return MipInstance(
        var_names=tuple(var_names),
        constraints=tuple(constraints),
        objective=objective,
        m=m,
        k=k,
        n_types=pop.n,
    )


def _format_coeff(value: float) -> str:
    return f"{value:.17g}"


def _format_terms(coeffs: dict[str, float]) -> str:
    parts: list[str] = []
    for name, coef in coeffs.items():
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_format_coeff(abs(coef))} {name}")
    if parts and parts[0].startswith("+ "):
        parts[0] = parts[0][2:]
    # keep lines short enough for strict LP readers: eight terms a line
    lines = [" ".join(parts[i : i + 8]) for i in range(0, len(parts), 8)]
    return "\n      ".join(lines)


def export_lp(mip: MipInstance, destination) -> None:
    """Write the instance in LP format (objective, constraints, bounds, binaries) to a path or a file object (``open_text``)."""
    _check_mip(mip)
    with open_text(destination, "w", "LP destination") as out:
        out.write(f"\\ welfare-maximizing menu: m={mip.m} k={mip.k} types={mip.n_types}\n")
        out.write("Maximize\n")
        terms = _format_terms(mip.objective)
        out.write(f" obj: {terms}\n")
        out.write("Subject To\n")
        for idx, (coeffs, sense, rhs) in enumerate(mip.constraints):
            body = _format_terms(coeffs)
            out.write(f" c{idx}: {body} {sense} {_format_coeff(rhs)}\n")
        out.write("Bounds\n")
        for name in mip.var_names:
            out.write(f" 0 <= {name} <= 1\n")
        out.write("Binary\n")
        for name in mip.binaries:
            out.write(f" {name}\n")
        out.write("End\n")


def solve_mip(mip: MipInstance, fix_menu=None):
    """Solve the instance with SciPy's HiGHS backend.

    With ``fix_menu`` the binaries are pinned to that menu and the continuous
    relaxation is solved (an LP); otherwise the full MIP is solved. Returns
    ``(objective_value, menu)``. A fixed menu must hold 1 to ``k`` items of
    ``0..m-1``.

    The dynamic-program states decay geometrically with position, so the
    coefficient range widens in ``m``. With random decreasing values the
    fixed-menu LP stays within 1e-10 of the table to m = 16 and drifts by
    up to about 1e-7 at m = 20-30. The integer path returned the enumerated
    optimum on all 36 instances tried at m = 9-16 (one or two types,
    k = 3-4), but solves take seconds from m = 13 on and the backend
    gives no exactness guarantee. For exact answers use
    ``enumerate_best_menu`` or ``branch_and_bound_menu``, or export the LP
    to a stronger solver.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    _check_mip(mip)
    if fix_menu is not None:
        fix_menu = _check_items(mip.m, fix_menu)
        if len(fix_menu) > mip.k:
            raise DomainError(f"fixed menu of {len(fix_menu)} items exceeds k={mip.k}")
    index = {name: i for i, name in enumerate(mip.var_names)}
    n = len(mip.var_names)
    c = np.zeros(n)
    for name, coef in mip.objective.items():
        c[index[name]] = -coef

    rows, cols, vals = [], [], []
    lo, hi = [], []
    for r, (coeffs, sense, rhs) in enumerate(mip.constraints):
        for name, coef in coeffs.items():
            rows.append(r)
            cols.append(index[name])
            vals.append(coef)
        if sense == "<=":
            lo.append(-np.inf)
            hi.append(rhs)
        elif sense == ">=":
            lo.append(rhs)
            hi.append(np.inf)
        else:
            lo.append(rhs)
            hi.append(rhs)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(len(mip.constraints), n))

    lb, ub = np.zeros(n), np.ones(n)
    integrality = np.zeros(n)
    if fix_menu is None:
        integrality[: mip.m] = 1
    else:
        for i in range(mip.m):
            lb[i] = ub[i] = 1.0 if i in fix_menu else 0.0

    problem = {
        "constraints": LinearConstraint(A, lo, hi),
        "bounds": Bounds(lb, ub),
        "integrality": integrality,
    }
    result = milp(c, **problem)
    if result.status == 2:
        # presolve can misjudge the long equality chains as infeasible once
        # their coefficient range gets wide (large m); retry without it
        result = milp(c, **problem, options={"presolve": False})
    if not result.success:
        raise RuntimeError(f"solver failed: {result.message}")
    x = result.x
    menu = tuple(i for i in range(mip.m) if x[i] > 0.5)
    return -result.fun, menu
