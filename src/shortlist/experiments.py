"""Dataset ingestion and the experiment drivers behind the CLI.

All drivers return rows as plain dicts (ready for ``emit_csv``) and are exact:
no Monte Carlo enters any of the shipped experiment paths.
"""
from __future__ import annotations

import csv
import importlib.resources
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .collab import _law_products, center_menu_rows, center_utilities, menu_utility_table, solo_utilities
from .errors import CapacityError, DomainError, ProfileParseError
from .models import ENUMERATION_CAP, MallowsModel, PlackettLuceModel, _memo, _topk_laws
from .optimize import branch_and_bound_menu, build_mip, enumerate_best_menu, optimize_with_uplift, solve_mip
from .rankings import HumanType, Population, Ranking, ValueProfile, apply_swap, borda_values, check_accuracy, check_universe, is_accuracy, is_integer, is_number, open_text
from .welfare import _welfare, uplifted

DEFAULT_PHI_GRID = tuple(0.25 * i for i in range(13))  # 0 .. 3 step 0.25
TENSION_PHI_GRID = tuple(round(0.3 * i, 10) for i in range(11))  # 0 .. 3 step 0.3
TENSION_VALUES = (1.0, 1.0, 0.5, 0.2, 0.0, 0.0)
BETA_GRID = tuple(round(0.5 * i, 10) for i in range(13))  # 0 .. 6 step 0.5


@dataclass(frozen=True)
class PreferenceProfile:
    """Rankings with occurrence counts (or fractions), e.g. survey data."""

    entries: tuple[tuple[Ranking, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ProfileParseError("profile is empty")
        check_universe(*(r for r, _ in self.entries))
        try:
            finite = all(c > 0 for _, c in self.entries) and self.total < math.inf
        except OverflowError:  # fsum of finite counts that overflows
            finite = False
        if not finite:
            raise DomainError("profile counts must be positive and finite, with a finite total")

    @property
    def m(self) -> int:
        return self.entries[0][0].m

    @property
    def total(self) -> float:
        return math.fsum(c for _, c in self.entries)

    def fractions(self) -> tuple[float, ...]:
        total = self.total
        return tuple(c / total for _, c in self.entries)

    def modal_ranking(self) -> Ranking:
        """The ranking with the largest total count; a tie goes to the lexicographically smallest."""
        counts: dict[tuple[int, ...], list[float]] = {}
        for r, c in self.entries:
            counts.setdefault(r.order, []).append(c)
        return Ranking(min(counts, key=lambda order: (-math.fsum(counts[order]), order)))

    def to_population(self, phi_h: float, values: ValueProfile | None = None) -> Population:
        """Population of Mallows humans, weighted by profile fractions."""
        values = values if values is not None else borda_values(self.m)
        return _mallows_population(values, zip([r for r, _ in self.entries], self.fractions()), phi_h)


def _mallows_population(values: ValueProfile, centers, phi_h: float) -> Population:
    """One Mallows(phi_h) type with ``values`` per (center, weight) pair of ``centers``, in that order."""
    return Population(tuple(HumanType(gt, MallowsModel(gt, phi_h), values, w) for gt, w in centers))


def _parse_ranking_tokens(tokens, m_expected: int | None, line_no: int) -> Ranking:
    try:
        labels = [int(t) for t in tokens]
    except ValueError as exc:
        raise ProfileParseError(f"non-integer ranking entry ({exc})", line_no) from None
    if m_expected is not None and len(labels) != m_expected:
        raise ProfileParseError(
            f"expected {m_expected} items per ranking, found {len(labels)}", line_no
        )
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise ProfileParseError(
            f"ranking must list each of 1..{len(labels)} exactly once: {labels}", line_no
        )
    return Ranking(tuple(x - 1 for x in labels))


def load_profile(source) -> PreferenceProfile:
    """Parse a preference profile from text lines or CSV.

    Text rows look like ``<count> <r1> <r2> ... <rm>`` with 1-indexed items;
    CSV needs a header whose first column is the count, and refuses an empty
    cell before a row's last filled one. A source whose first data line holds
    a comma is read as CSV, any other as text. ``source`` is a path or a file
    object (``open_text``); its text is split into lines by ``str.splitlines``.
    """
    with open_text(source, "r", "profile source") as handle:
        lines = [ln.strip() for ln in handle.read().splitlines()]
    content = [(no + 1, ln) for no, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not content:
        raise ProfileParseError("profile source contains no data rows")

    is_csv = "," in content[0][1]
    if is_csv:
        try:
            float(content[0][1].split(",")[0])
        except ValueError:
            pass  # the header row, which the loop skips
        else:
            raise ProfileParseError("a CSV profile needs a header row, but the first cell is a number", content[0][0])
    entries: list[tuple[Ranking, float]] = []
    m: int | None = None
    rows = content[1:] if is_csv else content  # csv: skip header row
    for line_no, line in rows:
        tokens = line.rstrip(",").split(",") if is_csv else line.split()  # trailing empty cells dropped
        if "" in tokens:
            raise ProfileParseError(f"empty cell in {line!r}", line_no)
        if len(tokens) < 3:
            raise ProfileParseError(f"too few fields: {line!r}", line_no)
        try:
            count = float(tokens[0])
        except ValueError:
            raise ProfileParseError(f"bad count field {tokens[0]!r}", line_no) from None
        if not (math.isfinite(count) and count > 0):
            raise ProfileParseError(f"count must be positive and finite, got {count}", line_no)
        ranking = _parse_ranking_tokens(tokens[1:], m, line_no)
        m = ranking.m
        entries.append((ranking, count))
    return PreferenceProfile(tuple(entries))


@_memo()
def sushi_profile() -> PreferenceProfile:
    """The packaged 33-row sushi fixture (counts out of a 5000-person survey).

    Parsed once per process: the profile is frozen and its entries are
    tuples, so every caller shares the one object.
    """
    text = (
        importlib.resources.files("shortlist")
        .joinpath("data/sushi_top33.txt")
        .read_text(encoding="utf-8")
    )
    return load_profile(io.StringIO(text))


def sushi_experiment(
    profile: PreferenceProfile | None = None,
    phi_grid=DEFAULT_PHI_GRID,
    k: int = 3,
) -> list[dict]:
    """Welfare and uplift of three benchmark menus across human accuracies, Borda values.

    ``majority`` presents the top-k of the modal ranking, ``welfare`` the
    welfare-maximizing menu, ``uplift`` the menu maximizing the weighted
    fraction of strictly-benefiting types (ties: welfare, then lexicographic),
    both with ``verify_uplift``'s bits. Any profile with at least ``k`` items
    works; the default is the packaged sushi fixture. A knob value a config
    refuses is refused here too, and ``profile`` is a loaded profile, not a path.

    The grid is scored in one table (``_grid_tables``), with the bits of one
    ``to_population`` per accuracy; every ranking shares its accuracy's solo utility.
    """
    if profile is not None and not isinstance(profile, PreferenceProfile):
        raise DomainError(f"profile must be a PreferenceProfile (load_profile reads a path), got {profile!r}")
    _check_knobs("sushi", phi_grid=phi_grid, k=k)
    profile = profile if profile is not None else sushi_profile()
    modal_menu = tuple(sorted(profile.modal_ranking().top(k)))
    phis = list(map(float, phi_grid))
    weights = profile.to_population(phis[0]).weights()  # a Population's (renormalized) weights
    menus, tables, grid = _grid_tables(phis, borda_values(profile.m), [r for r, _ in profile.entries], k)
    solos = solo_utilities(grid).tolist()
    idx_m = int((menus == modal_menu).all(axis=1).argmax())
    rows: list[dict] = []
    for phi_h, table, solo in zip(phis, tables, solos):
        welfare = _welfare(table, weights)
        fractions = _welfare(uplifted(table, solo), weights)

        idx_w = int(np.argmax(welfare))
        idx_u = int(np.lexsort((-welfare, -fractions))[0])

        for name, idx in (("A_m", idx_m), ("A_w", idx_w), ("A_u", idx_u)):
            rows.append(
                {
                    "phi_h": phi_h,
                    "algorithm": name,
                    "welfare": float(welfare[idx]),
                    "uplift_fraction": float(fractions[idx]),
                    "menu": _menu_label(menus[idx]),
                }
            )
    return rows


def _grid_tables(phis, values: ValueProfile, centers, k: int):
    """The menus, each accuracy's (menus, centers) table for Mallows types at ``centers``, and the grid population.

    The grid population holds one identity-centred type per accuracy, so its
    table's column g is accuracy g's utility of every position set; table g
    reads it at the ``center_menu_rows`` of the centers, as
    ``menu_utility_table`` fills a relabelling group, with the same bits.
    """
    gt = Ranking.identity(values.m)
    grid = Population(tuple(HumanType(gt, MallowsModel(gt, phi), values, 1 / len(phis)) for phi in phis))
    menus, columns = menu_utility_table(grid, k)
    at = center_menu_rows(np.array([r.positions for r in centers], dtype=np.intp), k).T  # (menus, centers)
    return menus, [columns[at, g] for g in range(len(phis))], grid


def _menu_label(menu) -> str:
    return "+".join(str(x + 1) for x in sorted(menu))


def beta_sweep(
    beta_grid=BETA_GRID,
    m: int = 4,
    k: int = 2,
    phi: float = 0.5,
    gumbel_beta: float = 0.1,
    families=("mallows", "rum"),
) -> list[dict]:
    """Utility difference of each of the m! - 1 misaligned centers vs the aligned one.

    Values decay as ``exp(-beta * rank)``; the sweep crosses the top-item
    recovery regime as ``beta`` grows. Human and algorithm are models of
    the same family around their centers: the Mallows family fixes both
    accuracies at ``phi``; the RUM family gives both sides Gumbel noise of
    scale ``gumbel_beta`` over the same value magnitudes. Rows list Mallows
    before RUM whatever the order of ``families``, a nonempty list of the
    two names as in a config. A knob value a config refuses is refused here
    too, and ``m`` above ``ENUMERATION_CAP`` before any center is built.

    Both sides are the identity's model relabelled by their center, so
    ``center_utilities``' product, ``collab._law_products``, scores every
    center from the human's table and menu law, through one
    ``center_menu_rows``. The Mallows family's models do not depend on
    ``beta``: its whole grid is one population, one type per ``beta``,
    scored by one ``menu_utility_table`` and one ``center_utilities`` call.
    The RUM family's models do: its grid is one ``menu_utility_table`` too,
    each type its own relabelling group, and each ``beta``'s ``topk_law`` is
    one column of a (menus, betas) law, scored by one product call. The
    betas' laws come from ``models._topk_laws``: one subset pass over all
    their Plackett-Luce models, with the bits of each model's own law.
    """
    _check_knobs("beta-sweep", beta_grid=beta_grid, m=m, k=k, phi=phi, gumbel_beta=gumbel_beta, families=families)
    if m > ENUMERATION_CAP:
        raise CapacityError(f"beta-sweep over {m}! - 1 centers exceeds the cap m <= {ENUMERATION_CAP}")
    gt = Ranking.identity(m)
    centers = np.array(list(itertools.permutations(range(m))), dtype=np.intp)  # row 0 is gt
    labels = [" ".join(str(x + 1) for x in center) for center in centers[1:].tolist()]
    rows = center_menu_rows(centers, k)
    betas = list(map(float, beta_grid))
    profiles = [ValueProfile(tuple(math.exp(-beta * j) for j in range(m))) for beta in betas]
    utilities = {}  # family -> (centers, betas) utilities
    if "mallows" in families:
        mallows = MallowsModel(gt, phi)
        pop = Population(tuple(HumanType(gt, mallows, vals, 1 / len(betas)) for vals in profiles))
        utilities["mallows"] = center_utilities(menu_utility_table(pop, k), mallows, rows)
    if "rum" in families:
        humans = tuple(HumanType(gt, PlackettLuceModel(v.values, gumbel_beta), v, 1 / len(betas)) for v in profiles)
        menus, table = menu_utility_table(Population(humans), k)
        utilities["rum"] = _law_products(_topk_laws([h.noise for h in humans], menus), table, rows)
    out: list[dict] = []
    for col, beta in enumerate(betas):
        for family, table in utilities.items():
            aligned, *misaligned = table[:, col].tolist()
            for label, u in zip(labels, misaligned):
                out.append(
                    {"beta": beta, "family": family, "center": label, "utility_difference": u - aligned}
                )
    return out


def _head_orders(m: int, t: int, gamma: float) -> list[tuple[Ranking, float]]:
    """The t! orders of m items differing only in their top t, each with its Mallows(gamma) head weight."""
    head_model = MallowsModel(Ranking.identity(t), gamma)
    return [
        (Ranking(perm + tuple(range(t, m))), head_model.perm_prob(Ranking(perm)))
        for perm in itertools.permutations(range(t))
    ]


def tension_population(gamma: float, phi_h: float) -> Population:
    """Six types differing only in their top-3 order, weighted Mallows(gamma)."""
    return _mallows_population(ValueProfile(TENSION_VALUES), _head_orders(len(TENSION_VALUES), 3, gamma), phi_h)


def tension_experiment(gamma: float = 3.0, phi_grid=TENSION_PHI_GRID, k: int = 3) -> list[dict]:
    """Optimal welfare with and without the uplift constraint, per accuracy.

    ``gamma`` weights the six head orders by Mallows(gamma), so it must be
    finite, nonnegative and small enough (below about 248.4) that the least
    likely order, the reversed one, keeps a positive weight. A knob value a
    config refuses is refused here too.

    The grid is scored in one table (``_grid_tables``), with the bits of one
    ``tension_population`` per accuracy, which still gives the optimizers its
    weights and solo utilities.
    """
    _check_knobs("tension", gamma=gamma, phi_grid=phi_grid, k=k)
    check_accuracy(gamma, "gamma")
    values = ValueProfile(TENSION_VALUES)
    heads = _head_orders(values.m, 3, gamma)
    if heads[-1][1] == 0:  # the reversed head order comes last
        raise DomainError(f"gamma {gamma!r} is too large: the weight of the reversed head order underflows to 0")
    phis = list(map(float, phi_grid))
    menus, tables, _ = _grid_tables(phis, values, [gt for gt, _ in heads], k)
    rows: list[dict] = []
    for phi_h, table in zip(phis, tables):
        pop = _mallows_population(values, heads, phi_h)
        unconstrained = enumerate_best_menu(pop, k, table=(menus, table))
        constrained = optimize_with_uplift(pop, k, table=(menus, table))
        rows.append(
            {
                "gamma": gamma,
                "phi_h": phi_h,
                "welfare_unconstrained": unconstrained.welfare,
                "menu_unconstrained": _menu_label(unconstrained.menu),
                "welfare_uplift_constrained": (
                    constrained.welfare if constrained is not None else ""
                ),
                "menu_uplift_constrained": (
                    _menu_label(constrained.menu) if constrained is not None else "infeasible"
                ),
            }
        )
    return rows


def _bench_values(m: int) -> ValueProfile:
    return ValueProfile((4.0, 3.0, 2.0, 1.0) + (0.0,) * (m - 4))


def _bench_two_type_population(m: int) -> Population:
    """Two Mallows(1) types, the identity and the identity with its first and fourth items swapped."""
    gt = Ranking.identity(m)
    return _mallows_population(_bench_values(m), [(gt, 0.5), (apply_swap(gt, 0, 3), 0.5)], 1.0)


def mip_bench(
    sizes=(8, 10, 12),
    k_list=(2, 4),
    type_counts=(1, 2, 3),
    solver: str = "bnb",
) -> list[dict]:
    """Timing study over instance sizes and population sizes.

    The two-type family swaps the first and fourth item between its types
    while varying ``m``; the population family fixes ``m`` and grows the
    number of types factorially among the first t of ``max(sizes)`` items,
    so a type count above ``ENUMERATION_CAP`` or above ``max(sizes)`` is
    refused before any population is built. ``solver`` is ``bnb`` or ``mip``
    (external, via SciPy's HiGHS); a knob value a config refuses is refused
    here too. Rows with C(m, k) <= 5000 are checked against enumeration.
    """
    _check_knobs("bench", sizes=sizes, k_list=k_list, type_counts=type_counts, solver=solver)
    too_many = [t for t in type_counts if t > ENUMERATION_CAP]
    if too_many:
        raise CapacityError(f"bench type counts {too_many} exceed the cap t <= {ENUMERATION_CAP} (t! types)")
    m_pop = max(sizes)
    if max(type_counts) > m_pop:
        raise DomainError(f"bench 'type_counts' {list(type_counts)} must be at most the largest of 'sizes', {m_pop}")
    rows: list[dict] = []
    for m in sizes:
        for k in k_list:
            if k > m:
                continue
            pop = _bench_two_type_population(m)
            rows.append(_bench_row("two-type", pop, m, k, solver))
    for t in type_counts:
        pop = _mallows_population(_bench_values(m_pop), _head_orders(m_pop, t, 1.0), 1.0)
        rows.append(_bench_row(f"mallows-pop(t={t})", pop, m_pop, min(k_list), solver))
    return rows


def _bench_row(family: str, pop: Population, m: int, k: int, solver: str) -> dict:
    start = time.perf_counter()
    status = "ok"
    if solver == "mip":
        mip = build_mip(pop, k)
        counters: dict = {"variables": mip.num_variables}
        try:
            value, menu = solve_mip(mip)
        except RuntimeError as exc:
            # the bundled integer backend loses numeric footing at larger m;
            # record the failure instead of aborting the sweep
            status = f"solver-error: {exc}"
            value, menu = float("nan"), ()
    else:
        res = branch_and_bound_menu(pop, k)
        value, menu = res.welfare, res.menu
        counters = {"nodes": res.nodes, "evaluations": res.evaluations}
    elapsed = time.perf_counter() - start
    row = {
        "family": family,
        "m": m,
        "k": k,
        "n_types": pop.n,
        "solver": solver,
        "status": status,
        "seconds": elapsed,
        "welfare": value,
        "menu": _menu_label(menu),
    }
    row.update(counters)
    if status == "ok" and math.comb(m, k) <= 5000:
        if solver == "mip":
            # the MIP's cardinality row is <= k, so smaller menus compete too
            exact = max(enumerate_best_menu(pop, kk).welfare for kk in range(1, k + 1))
        else:
            exact = enumerate_best_menu(pop, k).welfare
        row["welfare_gap_vs_enumeration"] = abs(exact - value)
    return row


def emit_csv(rows: list[dict], destination) -> None:
    """Write rows with a deterministic column order: every row's keys, in first-seen order.

    The csv module writes each cell: a float as its repr, a missing key or None as empty. Rows that
    are not a list or tuple of dicts are a DomainError.
    """
    if not isinstance(rows, (list, tuple)):
        raise DomainError(f"CSV rows must be a list of dicts, got {type(rows).__name__}")
    for row in rows:
        if not isinstance(row, dict):
            raise DomainError(f"CSV rows must be dicts, got a row of {type(row).__name__}")
    if not rows:
        raise DomainError("no rows to write")
    fieldnames = list(dict.fromkeys(itertools.chain.from_iterable(rows)))
    # a row keyed by the header, in its order, is read once; any other row cell by cell
    cells = [row.values() if list(row) == fieldnames else [row.get(f, "") for f in fieldnames] for row in rows]
    with open_text(destination, "w", "CSV destination") as handle:
        csv.writer(handle, lineterminator="\n").writerows([fieldnames] + cells)


def _nonempty_list(check, noun: str):
    def is_list(x) -> bool:
        return isinstance(x, (list, tuple)) and len(x) > 0 and all(check(v) for v in x)

    return is_list, f"a nonempty list of {noun}"


def _grid(name: str, check):
    is_list, wanted = _nonempty_list(check, "finite nonnegative numbers")
    return is_list, f"{name}: {wanted}"


_INT = (is_integer, "an integer")
_NUMBER = (is_number, "a number")

# Each experiment's driver and the knobs it accepts beyond "experiment" and
# "output": a key is the driver's parameter of that name, and a knob left out
# takes the driver's default. Each knob maps to (check, what the check wants),
# the whole rule for a value whose validity depends on that value alone; the
# driver checks all of its knobs on entry, so a config and a call agree.
# A driver is named, not held, so a run calls whatever this module binds to
# that name: perfbench traces a driver by rebinding it.
EXPERIMENTS = {
    "sushi": ("sushi_experiment", {
        "profile": (lambda x: isinstance(x, str), "a profile path"),
        "phi_grid": _grid("an accuracy grid", is_accuracy),
        "k": _INT,
    }),
    "beta-sweep": ("beta_sweep", {
        "beta_grid": _grid("a value-decay grid", lambda x: is_number(x) and 0 <= x < math.inf),
        "m": _INT,
        "k": _INT,
        "phi": _NUMBER,
        "gumbel_beta": _NUMBER,
        "families": _nonempty_list(lambda x: x in ("mallows", "rum"), "'mallows' and 'rum'"),
    }),
    "tension": ("tension_experiment", {"gamma": (is_number, "a nonnegative finite number"), "phi_grid": _grid("an accuracy grid", is_accuracy), "k": _INT}),
    "bench": ("mip_bench", {
        "sizes": _nonempty_list(lambda x: is_integer(x) and x >= 4, "integers >= 4"),
        "k_list": _nonempty_list(lambda x: is_integer(x) and x >= 1, "integers >= 1"),
        "type_counts": _nonempty_list(lambda x: is_integer(x) and x >= 1, "integers >= 1"),
        "solver": (lambda x: x in ("bnb", "mip"), "'bnb' or 'mip'"),
    }),
}


def _check_knobs(experiment: str, **knobs) -> None:
    """Refuse the first knob value that its ``EXPERIMENTS`` check rejects (DomainError naming the key)."""
    accepted = EXPERIMENTS[experiment][1]
    for key, value in knobs.items():
        check, wanted = accepted[key]
        if not check(value):
            raise DomainError(f"config key {key!r} must be {wanted}, got {value!r}")


def run_config(config) -> list[str]:
    """Run the experiment a JSON config selects; returns written output paths.

    ``config`` is a dict or the path of a JSON file holding one. It needs
    ``experiment`` (a name in ``EXPERIMENTS``) and ``output`` (the CSV path);
    any other key must be one of that experiment's knobs, or the run is
    refused with a ``DomainError``. The driver checks each knob's value
    against the table; only ``profile``, a path here, is checked before
    the profile is loaded.
    """
    if isinstance(config, (str, Path)):
        with open(config, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DomainError(f"config {config} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DomainError("config must be a JSON object")
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise DomainError(
            f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENTS)}"
        )
    output = config.get("output")
    if not isinstance(output, (str, Path)) or not output:
        raise DomainError("config needs an 'output' path")
    knobs = {key: value for key, value in config.items() if key not in ("experiment", "output")}
    driver, accepted = EXPERIMENTS[name]
    for key in knobs:
        if key not in accepted:
            raise DomainError(
                f"unknown key {key!r} for experiment {name!r}; valid keys: {', '.join(accepted)}"
            )
    if "profile" in knobs:
        _check_knobs(name, profile=knobs["profile"])
        knobs["profile"] = load_profile(knobs["profile"])
    rows = globals()[driver](**knobs)
    emit_csv(rows, output)
    return [str(output)]
