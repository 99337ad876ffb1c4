"""Welfare-maximizing menu selection.

By the noiselessness of the optimum, the search space is k-item menus rather
than full center rankings. Exactness comes from plain enumeration or a
branch-and-bound whose admissible per-type bound uses that a menu's pick
probabilities sum to 1; the mixed-integer program is built (and exportable
in LP format) as the bridge to external solvers for larger instances.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .choice import MENU_BLOCK, choice_dist, choice_table
from .collab import expected_utility, solo_utility
from .errors import DomainError
from .models import MallowsModel, _insertion_rows, k_menus, pairwise_matrix
from .rankings import NOISELESS, AlgorithmPolicy, HumanType, Population, Ranking
from .welfare import UPLIFT_TOLERANCE, verify_uplift

BOUND_SLACK = 1e-12


def menu_policy(m: int, menu, k: int | None = None) -> AlgorithmPolicy:
    """The noiseless policy that always presents ``menu``."""
    menu = sorted(menu)
    rest = [x for x in range(m) if x not in menu]
    return AlgorithmPolicy(
        center=Ranking(tuple(menu + rest)),
        accuracy=NOISELESS,
        menu_size=k if k is not None else len(menu),
    )


def menu_utility(h: HumanType, menu) -> float:
    """Expected utility for one type when ``menu`` is always presented."""
    return expected_utility(choice_dist(h.noise, menu), h)


def position_set_rank(m: int, k: int):
    """Map rows of k increasing positions to their rank among the C(m, k) sets.

    The rank is the row's index in ``itertools.combinations(range(m), k)``.
    Reflecting positions (p -> m-1-p) turns lexicographic order into reversed
    colexicographic order, whose rank is a sum of binomials; no term of a
    valid row exceeds C(m, k), so the table is clipped there.
    """
    total = math.comb(m, k)
    binom = np.array([[min(math.comb(n, r), total) for r in range(k, 0, -1)] for n in range(m)], dtype=np.intp)
    slots = np.arange(k)
    return lambda pos: total - 1 - binom[m - 1 - pos, slots].sum(axis=1)


def menu_utility_table(pop: Population, k: int):
    """All k-menus (``models.k_menus``) with per-type utilities, shape (menus, types).

    A Mallows pick distribution depends on a menu only through (m, phi) and
    the sorted center positions of its items, so the batched choice DP runs
    once per distinct Mallows accuracy, over all C(m, k) position sets: they
    are the lexicographic menus under the identity center. Each type of that
    accuracy reads its menu's row at ``position_set_rank`` of the menu's
    sorted positions. Plackett-Luce and explicit types get a table each.
    Entries are ``math.fsum`` of the same products as ``menu_utility``, so
    they have its bits.
    """
    m = pop.m
    menus = k_menus(m, k)
    items = np.array(menus, dtype=np.intp)
    table = np.empty((len(menus), pop.n))
    lex_rank = position_set_rank(m, k)

    def fill(col: int, h: HumanType, probs: np.ndarray, center: list[int] | None = None):
        v = np.asarray([h.value_of(x) for x in range(m)])
        if center is not None:
            rank = np.empty(m, dtype=np.intp)
            rank[center] = np.arange(m)
            v = v[center]  # by center position, as the kernel's rows are
        for lo in range(0, len(menus), MENU_BLOCK):
            block = items[lo : lo + MENU_BLOCK]
            if center is None:
                terms = probs[lo : lo + MENU_BLOCK] * v[block]
            else:
                pos = np.sort(rank[block], axis=1)
                terms = probs[lex_rank(pos)] * v[pos]
            table[lo : lo + len(block), col] = [math.fsum(row) for row in terms.tolist()]

    by_phi: dict[float, list[int]] = {}
    for col, h in enumerate(pop):
        if isinstance(h.noise, MallowsModel):
            by_phi.setdefault(h.noise.phi, []).append(col)
        else:
            fill(col, h, choice_table(h.noise, items))
    for phi, cols in by_phi.items():
        kernel = choice_table(MallowsModel(Ranking.identity(m), phi), items)
        for col in cols:
            h = pop.types[col]
            fill(col, h, kernel, list(h.noise.center.order))
        del kernel  # one accuracy's kernel alive at a time
    return menus, table


def _welfare(table: np.ndarray, weights) -> np.ndarray:
    """Weighted sum of each row of a (menus, types) table, exactly rounded.

    A menu's welfare then has the same bits whether the menu is scored alone
    (branch and bound) or in a table (enumeration), so both break ties alike.
    """
    terms = table * np.asarray(weights)
    return np.array([math.fsum(row.tolist()) for row in terms])


@dataclass(frozen=True)
class OptimizeResult:
    menu: tuple[int, ...]
    welfare: float
    per_type: tuple[float, ...]
    method: str
    evaluations: int
    nodes: int | None = None


def enumerate_best_menu(pop: Population, k: int) -> OptimizeResult:
    """Exact argmax over all k-menus; ties go to the lexicographically smallest."""
    menus, table = menu_utility_table(pop, k)
    welfare = _welfare(table, pop.weights())
    best = int(np.argmax(welfare))  # argmax returns the first (lex-smallest) maximizer
    return OptimizeResult(
        menu=menus[best],
        welfare=float(welfare[best]),
        per_type=tuple(float(u) for u in table[best]),
        method="enumeration",
        evaluations=len(menus),
    )


def _bound_inputs(pop: Population):
    """Per-type values (types, m), pairwise caps (types, m, m) and weights.

    ``caps[h, x, f]`` is P[x before f] for type h, with a diagonal of 1, so a
    minimum over a set's columns ignores the item itself.
    """
    values = np.asarray([[h.value_of(x) for x in range(pop.m)] for h in pop])
    caps = np.asarray([pairwise_matrix(h.noise) for h in pop])
    caps[:, np.arange(pop.m), np.arange(pop.m)] = 1.0
    return values, caps, np.asarray(pop.weights())


def _node_bound(values, caps, weights, fixed, rest, slots: int) -> float:
    """Upper bound on the welfare of ``fixed`` plus any ``slots`` items of ``rest``.

    An item is picked from a menu no more often than it beats any other item
    of the menu pairwise, so each item's pick probability is capped by its
    weakest comparison against the other fixed items. Per type the bound is
    the smaller of two relaxations of the menu's utility:

    - the fixed items at their caps plus the ``slots`` best candidates by
      value times cap;
    - a fractional knapsack: the pick probabilities sum to 1, so mass 1 is
      poured in descending value over the fixed items and every candidate,
      each taking at most its cap.

    Values are nonnegative, so both over-promise and the bound is admissible.
    """
    fixed = list(fixed)
    items = fixed + list(rest)
    v = values[:, items]
    if fixed:
        cap = caps[:, items][:, :, fixed].min(axis=2)
    else:
        cap = np.ones_like(v)
    worth = v * cap
    best_rest = -np.sort(-worth[:, len(fixed):], axis=1)[:, :slots]
    pairwise_bound = worth[:, : len(fixed)].sum(axis=1) + best_rest.sum(axis=1)
    rows = np.arange(len(v))[:, None]
    by_value = np.argsort(-v, axis=1, kind="stable")
    poured = np.minimum(np.cumsum(cap[rows, by_value], axis=1), 1.0)
    mass = poured.copy()
    mass[:, 1:] -= poured[:, :-1]
    knapsack = (v[rows, by_value] * mass).sum(axis=1)
    return float(weights @ np.minimum(pairwise_bound, knapsack))


def branch_and_bound_menu(pop: Population, k: int) -> OptimizeResult:
    """Exact menu optimization by depth-first branch and bound.

    Items are branched on in descending population value
    ``sum_h w_h v_h(x)`` (ties by item id), include before exclude, so the
    first leaf is the top-``k`` menu by value and a strong incumbent comes
    early. A node is pruned when ``_node_bound`` (the per-type minimum of a
    pairwise-capped top-``slots`` bound and a probability-mass knapsack) is
    below the incumbent by more than ``BOUND_SLACK``; a node whose menu is
    complete is bounded on that menu alone before it is scored. Leaves are
    scored with ``menu_utility`` and ``_welfare``, so a menu has the same
    welfare bits as in ``enumerate_best_menu``; since the visit order is not
    lexicographic, a leaf of equal welfare replaces the incumbent when its
    sorted menu is lexicographically smaller, and both solvers return the
    same menu.
    """
    m = pop.m
    if not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")
    values, caps, weights = _bound_inputs(pop)
    item_value = weights @ values
    order = sorted(range(m), key=lambda x: (-item_value[x], x))

    best_menu: tuple[int, ...] | None = None
    best_value = -math.inf
    best_per_type: tuple[float, ...] = ()
    nodes = 0
    evaluations = 0

    def evaluate(menu: tuple[int, ...]):
        nonlocal best_menu, best_value, best_per_type, evaluations
        evaluations += 1
        per_type = np.asarray([menu_utility(h, menu) for h in pop])
        value = float(_welfare(per_type[None, :], weights)[0])
        if value > best_value or (value == best_value and menu < best_menu):
            best_value = value
            best_menu = menu
            best_per_type = tuple(float(u) for u in per_type)

    def descend(fixed: tuple[int, ...], next_idx: int):
        nonlocal nodes
        nodes += 1
        slots = k - len(fixed)
        rest = order[next_idx:]
        if slots == 0 or len(rest) == slots:
            menu = fixed + tuple(rest[:slots])
            if _node_bound(values, caps, weights, menu, (), 0) > best_value - BOUND_SLACK:
                evaluate(tuple(sorted(menu)))
            return
        if _node_bound(values, caps, weights, fixed, rest, slots) <= best_value - BOUND_SLACK:
            return
        descend(fixed + (rest[0],), next_idx + 1)
        descend(fixed, next_idx + 1)

    descend((), 0)
    assert best_menu is not None
    return OptimizeResult(
        menu=best_menu,
        welfare=best_value,
        per_type=best_per_type,
        method="branch-and-bound",
        evaluations=evaluations,
        nodes=nodes,
    )


def optimize_with_uplift(pop: Population, k: int) -> OptimizeResult | None:
    """Best menu among those whose noiseless policy uplifts every type.

    Returns None when no k-menu achieves uplift.
    """
    menus, table = menu_utility_table(pop, k)
    solo = np.asarray([solo_utility(h) for h in pop])
    feasible = np.all(table > solo + UPLIFT_TOLERANCE, axis=1)
    if not feasible.any():
        return None
    welfare = np.where(feasible, _welfare(table, pop.weights()), -np.inf)
    best = int(np.argmax(welfare))
    return OptimizeResult(
        menu=menus[best],
        welfare=float(welfare[best]),
        per_type=tuple(float(u) for u in table[best]),
        method="enumeration+uplift",
        evaluations=len(menus),
    )


def noisy_uplift_search(pop: Population, center: Ranking, phi_grid, k: int):
    """Evaluate uplift for every accuracy on a grid, keeping the best by min gain.

    ``phi_grid`` may mix floats and the NOISELESS sentinel. Returns
    ``(best_accuracy, best_report, all_reports)`` where ``all_reports`` is a
    list of ``(accuracy, WelfareReport)`` in grid order and "best" maximizes
    the minimum per-type utility gain.
    """
    phi_grid = list(phi_grid)
    if not phi_grid:
        raise DomainError("accuracy grid must be nonempty")
    if center.m != pop.m:
        raise DomainError("center and population must share the item universe")
    reports = []
    best_phi = None
    best_report = None
    for phi in phi_grid:
        policy = AlgorithmPolicy(center=center, accuracy=phi, menu_size=k)
        report = verify_uplift(pop, policy)
        reports.append((phi, report))
        if best_report is None or report.min_gain > best_report.min_gain:
            best_phi, best_report = phi, report
    return best_phi, best_report, reports


# ---------------------------------------------------------------------------
# Mixed-integer program


@dataclass(frozen=True, eq=False)
class MipInstance:
    """A welfare-maximization MIP over menu indicator variables.

    Binary ``x_<item>`` marks menu membership; per type ``h``, continuous
    variables ``type<h>_W_<item>_<s>_<t>`` carry the insertion dynamic
    program, with ``y``/``z``/``q`` as its linearization helpers. Constraints
    are (coefficients, sense, rhs) rows; the objective is maximized.
    """

    var_names: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    binaries: tuple[str, ...]
    constraints: tuple[tuple[dict[str, float], str, float], ...]
    objective: dict[str, float]
    m: int
    k: int
    n_types: int

    @property
    def num_variables(self) -> int:
        return len(self.var_names)


def build_mip(pop: Population, k: int) -> MipInstance:
    """Assemble the welfare-maximization MIP for a Mallows population.

    One choice-probability constraint block per type, coupled through the
    shared menu indicators; the objective collects value-weighted terminal
    pick probabilities. Only builds the instance; solving is the caller's
    choice (see ``solve_mip`` / ``export_lp``).
    """
    m = pop.m
    if not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")
    for h in pop:
        if not isinstance(h.noise, MallowsModel):
            raise DomainError("the MIP requires every type's noise model to be Mallows")

    var_names: list[str] = [f"x_{i}" for i in range(m)]
    bounds: dict[str, tuple[float, float]] = {f"x_{i}": (0.0, 1.0) for i in range(m)}
    constraints: list[tuple[dict[str, float], str, float]] = []
    objective: dict[str, float] = {}

    def add_var(name: str):
        var_names.append(name)
        bounds[name] = (0.0, 1.0)

    for h_idx, h in enumerate(pop):
        model: MallowsModel = h.noise
        center = model.center.order
        probs, gammas, _ = _insertion_rows(m, model.phi)
        prefix = f"type{h_idx}"

        def W(a: int, s: int, t: int) -> str:
            return f"{prefix}_W_{a}_{s}_{t}"

        def Y(a: int, s: int, t: int) -> str:
            return f"{prefix}_y_{a}_{s}_{t}"

        def Z(s: int, t: int) -> str:
            return f"{prefix}_z_{s}_{t}"

        def Q(t: int) -> str:
            return f"{prefix}_q_{t}"

        for t in range(1, m + 1):
            for s in range(1, t + 1):
                add_var(Z(s, t))
            for a in center[:t]:
                for s in range(1, t + 1):
                    add_var(W(a, s, t))
            for a in center[: t - 1]:
                for s in range(1, t + 1):
                    add_var(Y(a, s, t))
        for t in range(1, m):
            add_var(Q(t))

        for t in range(1, m + 1):
            item_t = center[t - 1]
            p_row = probs[t - 1, :t]
            gamma = gammas[t - 1, :t]

            for s in range(1, t + 1):
                # diagonal states are exactly the fresh-insertion mass
                constraints.append(
                    ({W(item_t, s, t): 1.0, Z(s, t): -1.0}, "=", 0.0)
                )
                # z <= p * (mass of earlier front-runners at positions >= s, + q)
                coeffs: dict[str, float] = {Z(s, t): 1.0}
                p_ts = float(p_row[s - 1])
                for a in center[: t - 1]:
                    for pos in range(s, t):
                        coeffs[W(a, pos, t - 1)] = -p_ts
                rhs = 0.0
                if t == 1:
                    rhs = p_ts  # q_0 is the constant 1
                else:
                    coeffs[Q(t - 1)] = -p_ts
                constraints.append((coeffs, "<=", rhs))
                # z <= p * x: no fresh mass unless the item is in the menu
                constraints.append(
                    ({Z(s, t): 1.0, f"x_{item_t}": -p_ts}, "<=", 0.0)
                )

            for a in center[: t - 1]:
                for s in range(1, t + 1):
                    coeffs = {W(a, s, t): 1.0, Y(a, s, t): -1.0}
                    if s <= t - 1:
                        coeffs[W(a, s, t - 1)] = -(1.0 - float(gamma[s - 1]))
                    constraints.append((coeffs, "=", 0.0))
                    if s == 1:
                        constraints.append(({Y(a, s, t): 1.0}, "<=", 0.0))
                    else:
                        constraints.append(
                            (
                                {
                                    Y(a, s, t): 1.0,
                                    W(a, s - 1, t - 1): -float(gamma[s - 2]),
                                },
                                "<=",
                                0.0,
                            )
                        )
                    # the shift branch only exists when the inserted item is
                    # outside the menu
                    constraints.append(
                        ({Y(a, s, t): 1.0, f"x_{item_t}": 1.0}, "<=", 1.0)
                    )

        for t in range(1, m):
            for i in range(1, t + 1):
                constraints.append(
                    ({Q(t): 1.0, f"x_{center[i - 1]}": 1.0}, "<=", 1.0)
                )
            coeffs = {Q(t): 1.0}
            for i in range(1, t + 1):
                coeffs[f"x_{center[i - 1]}"] = 1.0
            constraints.append((coeffs, ">=", 1.0))

        for a in range(m):
            value = h.value_of(a)
            if value == 0.0:
                continue
            for s in range(1, m + 1):
                objective[W(a, s, m)] = h.weight * value

    constraints.append(({f"x_{i}": 1.0 for i in range(m)}, "<=", float(k)))

    return MipInstance(
        var_names=tuple(var_names),
        bounds=bounds,
        binaries=tuple(f"x_{i}" for i in range(m)),
        constraints=tuple(constraints),
        objective=dict(objective),
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
    """Write the instance in LP format (objective, constraints, bounds, binaries)."""
    if hasattr(destination, "write"):
        _write_lp(mip, destination)
        return
    with open(destination, "w", encoding="utf-8") as handle:
        _write_lp(mip, handle)


def _write_lp(mip: MipInstance, out: io.TextIOBase) -> None:
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
        lb, ub = mip.bounds[name]
        out.write(f" {_format_coeff(lb)} <= {name} <= {_format_coeff(ub)}\n")
    out.write("Binary\n")
    for name in mip.binaries:
        out.write(f" {name}\n")
    out.write("End\n")


def solve_mip(mip: MipInstance, fix_menu=None):
    """Solve the instance with SciPy's HiGHS backend.

    With ``fix_menu`` the binaries are pinned to that menu and the continuous
    relaxation is solved (an LP); otherwise the full MIP is solved. Returns
    ``(objective_value, menu)``.

    The dynamic-program states decay geometrically with position, so the
    coefficient range widens quickly in ``m``; the bundled backend handles
    the fixed-menu LP to m around 20 but its integer path degrades above
    m around 10. Past that, use ``enumerate_best_menu`` or
    ``branch_and_bound_menu``, which are exact, or export the LP to a
    stronger solver.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

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

    lb = np.array([mip.bounds[name][0] for name in mip.var_names])
    ub = np.array([mip.bounds[name][1] for name in mip.var_names])
    integrality = np.zeros(n)
    if fix_menu is None:
        for name in mip.binaries:
            integrality[index[name]] = 1
    else:
        menu = set(fix_menu)
        for i in range(mip.m):
            idx = index[f"x_{i}"]
            lb[idx] = ub[idx] = 1.0 if i in menu else 0.0

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
    menu = tuple(
        i for i in range(mip.m) if x[index[f"x_{i}"]] > 0.5
    )
    return -result.fun, menu
