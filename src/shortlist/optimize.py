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
from .models import (
    MallowsModel,
    _insertion_rows,
    k_menus,
    model_menu_distribution,
    pairwise_matrix,
    policy_ranking_model,
)
from .rankings import NOISELESS, AlgorithmPolicy, HumanType, Population, Ranking
from .welfare import UPLIFT_TOLERANCE, welfare_report

BOUND_SLACK = 1e-12
PRODUCT_BLOCK = 1 << 16  # (center, menu) pairs per pass of center_utilities; bounds its memory


def menu_policy(m: int, menu) -> AlgorithmPolicy:
    """The noiseless policy that always presents ``menu``."""
    menu = sorted(menu)
    rest = [x for x in range(m) if x not in menu]
    return AlgorithmPolicy(center=Ranking(tuple(menu + rest)), accuracy=NOISELESS, menu_size=len(menu))


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
    sorted positions. Plackett-Luce and explicit types get a table each,
    read the same way with the identity as center. Entries are
    ``math.fsum`` of the same products as ``menu_utility``, so they have its
    bits.
    """
    m = pop.m
    menus = k_menus(m, k)
    items = np.array(menus, dtype=np.intp)
    table = np.empty((len(menus), pop.n))
    lex_rank = position_set_rank(m, k)

    def fill(col: int, h: HumanType, probs: np.ndarray, center):
        v = np.asarray([h.value_of(x) for x in range(m)])
        rank = np.empty(m, dtype=np.intp)
        rank[center] = np.arange(m)
        v = v[center]  # by center position, as the table's rows are
        for lo in range(0, len(menus), MENU_BLOCK):
            pos = np.sort(rank[items[lo : lo + MENU_BLOCK]], axis=1)
            terms = probs[lex_rank(pos)] * v[pos]
            table[lo : lo + len(pos), col] = [math.fsum(row) for row in terms.tolist()]

    by_phi: dict[float, list[int]] = {}
    for col, h in enumerate(pop):
        if isinstance(h.noise, MallowsModel):
            by_phi.setdefault(h.noise.phi, []).append(col)
        else:
            fill(col, h, choice_table(h.noise, items), range(m))
    for phi, cols in by_phi.items():
        kernel = choice_table(MallowsModel(Ranking.identity(m), phi), items)
        for col in cols:
            h = pop.types[col]
            fill(col, h, kernel, list(h.noise.center.order))
        del kernel  # one accuracy's kernel alive at a time
    return menus, table


def identity_menu_law(k: int, model) -> np.ndarray:
    """P_id: a menu law over ``k_menus(model.m, k)``, as an array in that order.

    ``model`` is the policy's ranking model at the identity center (at
    accuracy ``NOISELESS = inf``, ``policy_ranking_model``'s point mass,
    which puts probability 1 on the first menu), and its top-k set law is
    read from ``model_menu_distribution``.
    """
    return np.fromiter(model_menu_distribution(model, k).values(), dtype=float)


def center_menu_rows(centers, k: int) -> np.ndarray:
    """Table row of every identity menu moved to every center, shape (centers, menus).

    ``centers`` is a (centers, m) array of center orders. Entry (c, T) is
    ``position_set_rank`` of the sorted items at positions T (the T-th menu
    of ``k_menus(m, k)``) of center c: the ``menu_utility_table`` row of
    the menu a policy at c presents where the identity's policy presents T.
    """
    centers = np.asarray(centers, dtype=np.intp)
    m = centers.shape[1]
    positions = np.array(k_menus(m, k), dtype=np.intp)
    items = np.sort(centers[:, positions], axis=2)
    return position_set_rank(m, k)(items.reshape(-1, k)).reshape(len(centers), len(positions))


def center_utilities(table: np.ndarray, p_id: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Expected utility of every type under a menu law moved to each center.

    ``table`` is ``menu_utility_table``'s (menus, types) table, ``p_id`` an
    ``identity_menu_law`` and ``rows`` the centers' ``center_menu_rows``.
    Entry (c, t) is ``sum_T p_id[T] * table[rows[c, T], t]``, the type's
    joint utility under the identity's menu law relabelled by center c.
    That is a Mallows policy at c, or a Plackett-Luce one whose values
    follow center position. Each entry is ``math.fsum`` of its terms, and
    menus of zero probability are skipped. Returns (centers, types).
    """
    menus = np.flatnonzero(p_id)
    weights = np.asarray(p_id)[menus, None]
    rows = rows[:, menus]
    out = np.empty((len(rows), table.shape[1]))
    step = max(1, PRODUCT_BLOCK // len(menus))
    for lo in range(0, len(rows), step):
        terms = weights * table[rows[lo : lo + step]]  # (centers, menus, types)
        by_entry = terms.transpose(0, 2, 1).reshape(-1, len(menus)).tolist()
        out[lo : lo + len(terms)] = np.reshape([math.fsum(t) for t in by_entry], (len(terms), -1))
    return out


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


def enumerate_best_menu(pop: Population, k: int, *, table=None) -> OptimizeResult:
    """Exact argmax over all k-menus; ties go to the lexicographically smallest.

    ``table`` is ``menu_utility_table(pop, k)`` when the caller already has it.
    """
    menus, table = table if table is not None else menu_utility_table(pop, k)
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


def _node_bound(values, caps, weights, fixed, rest) -> float:
    """Upper bound on the welfare of any menu of ``fixed`` plus items of ``rest``.

    An item is picked from a menu no more often than it beats any other item
    of the menu pairwise, so each item's pick probability is capped by its
    weakest comparison against the other fixed items. The pick probabilities
    sum to 1, so per type the bound is a fractional knapsack: mass 1 is
    poured in descending value over the fixed items and every candidate,
    each taking at most its cap. It ignores how many candidates still fit,
    and values are nonnegative, so it over-promises and is admissible.
    """
    fixed = list(fixed)
    items = fixed + list(rest)
    v = values[:, items]
    if fixed:
        cap = caps[:, items][:, :, fixed].min(axis=2)
    else:
        cap = np.ones_like(v)
    rows = np.arange(len(v))[:, None]
    by_value = np.argsort(-v, axis=1, kind="stable")
    poured = np.minimum(np.cumsum(cap[rows, by_value], axis=1), 1.0)
    mass = poured.copy()
    mass[:, 1:] -= poured[:, :-1]
    knapsack = (v[rows, by_value] * mass).sum(axis=1)
    return float(weights @ knapsack)


def branch_and_bound_menu(pop: Population, k: int) -> OptimizeResult:
    """Exact menu optimization by depth-first branch and bound.

    Items are branched on in descending population value
    ``sum_h w_h v_h(x)`` (ties by item id), include before exclude, so the
    first leaf is the top-``k`` menu by value and a strong incumbent comes
    early. A node is pruned when ``_node_bound`` (a per-type knapsack of
    pick-probability mass under pairwise caps) is below the incumbent by
    more than ``BOUND_SLACK``; a node whose menu is complete is bounded on
    that menu alone before it is scored. Leaves are scored with
    ``menu_utility`` and ``_welfare``, so a menu has the same welfare bits as
    in ``enumerate_best_menu``; since the visit order is not lexicographic, a
    leaf of equal welfare replaces the incumbent when its sorted menu is
    lexicographically smaller, and both solvers return the same menu. No menu
    table is built, so it also runs where C(m, k) exceeds
    ``MENU_ENUMERATION_CAP``.
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
            if _node_bound(values, caps, weights, menu, ()) > best_value - BOUND_SLACK:
                evaluate(tuple(sorted(menu)))
            return
        if _node_bound(values, caps, weights, fixed, rest) <= best_value - BOUND_SLACK:
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


def optimize_with_uplift(pop: Population, k: int, *, table=None) -> OptimizeResult | None:
    """Best menu among those whose noiseless policy uplifts every type.

    Returns None when no k-menu achieves uplift. ``table`` is
    ``menu_utility_table(pop, k)`` when the caller already has it.
    """
    menus, table = table if table is not None else menu_utility_table(pop, k)
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

    ``phi_grid`` holds accuracies in [0, inf]; ``NOISELESS`` is inf. Returns
    ``(best_accuracy, best_report, all_reports)`` where ``all_reports`` is a
    list of ``(accuracy, WelfareReport)`` in grid order and "best" maximizes
    the minimum per-type utility gain. One ``menu_utility_table`` and each
    type's solo utility serve the whole grid; an accuracy's joint utilities
    are ``center_utilities`` of its ``identity_menu_law`` at ``center``.
    """
    phi_grid = list(phi_grid)
    if not phi_grid:
        raise DomainError("accuracy grid must be nonempty")
    if center.m != pop.m:
        raise DomainError("center and population must share the item universe")
    _, table = menu_utility_table(pop, k)
    solo = [solo_utility(h) for h in pop]
    rows = center_menu_rows([center.order], k)
    identity = Ranking.identity(pop.m)
    reports = []
    best_phi = None
    best_report = None
    for phi in phi_grid:
        model = policy_ranking_model(AlgorithmPolicy(center=identity, accuracy=phi, menu_size=k))
        joint = center_utilities(table, identity_menu_law(k, model), rows)[0]
        report = welfare_report(pop, solo, joint.tolist())
        reports.append((phi, report))
        if best_report is None or report.min_gain > best_report.min_gain:
            best_phi, best_report = phi, report
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
    m = pop.m
    if not 1 <= k <= m:
        raise DomainError(f"menu size {k} out of range for m={m}")
    for h in pop:
        if not isinstance(h.noise, MallowsModel):
            raise DomainError("the MIP requires every type's noise model to be Mallows")

    var_names: list[str] = [f"x_{i}" for i in range(m)]
    constraints: list[tuple[dict[str, float], str, float]] = []
    objective: dict[str, float] = {}

    for h_idx, h in enumerate(pop):
        model: MallowsModel = h.noise
        center = model.center.order
        probs, gammas, keeps, _ = _insertion_rows(m, model.phi)
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
        out.write(f" 0 <= {name} <= 1\n")
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
        menu = set(fix_menu)
        for i in range(mip.m):
            lb[i] = ub[i] = 1.0 if i in menu else 0.0

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
