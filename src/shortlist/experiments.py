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

from .collab import expected_utility, joint_pick_from_menus, joint_utility, solo_utility
from .errors import CapacityError, DimensionError, DomainError, ProfileParseError
from .models import ENUMERATION_CAP, MallowsModel, PlackettLuceModel, model_menu_distribution
from .optimize import (
    _welfare,
    branch_and_bound_menu,
    build_mip,
    enumerate_best_menu,
    menu_utility_table,
    optimize_with_uplift,
    solve_mip,
)
from .rankings import (
    AlgorithmPolicy,
    HumanType,
    Population,
    Ranking,
    ValueProfile,
    borda_values,
)
from .welfare import UPLIFT_TOLERANCE

DEFAULT_PHI_GRID = tuple(0.25 * i for i in range(13))  # 0 .. 3 step 0.25
TENSION_PHI_GRID = tuple(round(0.3 * i, 10) for i in range(11))  # 0 .. 3 step 0.3
TENSION_VALUES = (1.0, 1.0, 0.5, 0.2, 0.0, 0.0)


def _validated_grid(grid, name: str) -> tuple[float, ...]:
    values = tuple(float(x) for x in grid)
    if not values:
        raise DomainError(f"{name} grid must be nonempty")
    if any(not math.isfinite(x) for x in values):
        raise DomainError(f"{name} grid must contain finite values")
    return values


@dataclass(frozen=True)
class PreferenceProfile:
    """Rankings with occurrence counts (or fractions), e.g. survey data."""

    entries: tuple[tuple[Ranking, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ProfileParseError("profile is empty")
        m = self.entries[0][0].m
        if any(r.m != m for r, _ in self.entries):
            raise DimensionError("profile rankings must share the same item count")
        if any(c <= 0 for _, c in self.entries):
            raise DomainError("profile counts must be positive")

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
        best = max(c for _, c in self.entries)
        tied = [r for r, c in self.entries if c == best]
        return min(tied, key=lambda r: r.order)

    def to_population(self, phi_h: float, values: ValueProfile | None = None) -> Population:
        """Population of Mallows humans, weighted by profile fractions."""
        values = values if values is not None else borda_values(self.m)
        fracs = self.fractions()
        return Population(
            tuple(
                HumanType(r, MallowsModel(r, phi_h), values, w)
                for (r, _), w in zip(self.entries, fracs)
            )
        )


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


def load_profile(source, fmt: str = "auto") -> PreferenceProfile:
    """Parse a preference profile from text lines or CSV.

    Text rows look like ``<count> <r1> <r2> ... <rm>`` with 1-indexed items;
    CSV needs a header whose first column is the count. ``source`` may be a
    path, a file object, or an iterable of lines.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = list(source)

    stripped = [ln.strip() for ln in lines]
    content = [(no + 1, ln) for no, ln in enumerate(stripped) if ln and not ln.startswith("#")]
    if not content:
        raise ProfileParseError("profile source contains no data rows")

    if fmt == "auto":
        fmt = "csv" if "," in content[0][1] else "text"

    entries: list[tuple[Ranking, float]] = []
    m: int | None = None
    rows = content[1:] if fmt == "csv" else content  # csv: skip header row
    for line_no, line in rows:
        tokens = [t for t in (line.split(",") if fmt == "csv" else line.split()) if t != ""]
        if len(tokens) < 3:
            raise ProfileParseError(f"too few fields: {line!r}", line_no)
        try:
            count = float(tokens[0])
        except ValueError:
            raise ProfileParseError(f"bad count field {tokens[0]!r}", line_no) from None
        if count <= 0:
            raise ProfileParseError(f"count must be positive, got {count}", line_no)
        ranking = _parse_ranking_tokens(tokens[1:], m, line_no)
        m = ranking.m
        entries.append((ranking, count))
    return PreferenceProfile(tuple(entries))


def sushi_profile() -> PreferenceProfile:
    """The packaged 33-row sushi fixture (counts out of a 5000-person survey)."""
    text = (
        importlib.resources.files("shortlist")
        .joinpath("data/sushi_top33.txt")
        .read_text(encoding="utf-8")
    )
    return load_profile(io.StringIO(text), fmt="text")


def sushi_experiment(
    profile: PreferenceProfile | None = None,
    phi_grid=DEFAULT_PHI_GRID,
    k: int = 3,
    allow_any_m: bool = False,
) -> list[dict]:
    """Welfare and uplift of three benchmark menus across human accuracies, Borda values.

    ``majority`` presents the top-k of the modal ranking, ``welfare`` the
    welfare-maximizing menu, ``uplift`` the menu maximizing the weighted
    fraction of strictly-benefiting types (ties: welfare, then lexicographic).
    """
    profile = profile if profile is not None else sushi_profile()
    if profile.m != 5 and not allow_any_m:
        raise DimensionError(
            f"the canonical run expects 5 items, profile has {profile.m}"
        )
    modal_menu = tuple(sorted(profile.modal_ranking().prefix(k)))
    rows: list[dict] = []
    for phi_h in _validated_grid(phi_grid, "accuracy"):
        pop = profile.to_population(phi_h)
        weights = np.asarray(pop.weights())
        solo = np.asarray([solo_utility(h) for h in pop])
        menus, table = menu_utility_table(pop, k)
        welfare = _welfare(table, weights)
        uplifted = table > solo + UPLIFT_TOLERANCE
        fractions = uplifted @ weights

        idx_w = int(np.argmax(welfare))
        idx_u = 0
        for i in range(1, len(menus)):
            if fractions[i] > fractions[idx_u] or (
                fractions[i] == fractions[idx_u] and welfare[i] > welfare[idx_u]
            ):
                idx_u = i
        idx_m = menus.index(modal_menu)

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


def _menu_label(menu) -> str:
    return "+".join(str(x + 1) for x in sorted(menu))


def beta_sweep(
    beta_grid=None,
    m: int = 4,
    k: int = 2,
    phi: float = 0.5,
    gumbel_beta: float = 0.1,
    families=("mallows", "rum"),
) -> list[dict]:
    """Utility difference of each of the m! - 1 misaligned centers vs the aligned one.

    Values decay as ``exp(-beta * rank)``; the sweep crosses the top-item
    recovery regime as ``beta`` grows. The Mallows family fixes both
    accuracies at ``phi``; the RUM family gives both sides Gumbel noise of
    scale ``gumbel_beta`` over the same value magnitudes. ``m`` above
    ``ENUMERATION_CAP`` is refused before any center is built.
    """
    if beta_grid is None:
        beta_grid = tuple(round(0.5 * i, 10) for i in range(13))  # 0 .. 6
    beta_grid = _validated_grid(beta_grid, "value-decay")
    if m > ENUMERATION_CAP:
        raise CapacityError(f"beta-sweep over {m}! - 1 centers exceeds the cap m <= {ENUMERATION_CAP}")
    gt = Ranking.identity(m)
    centers = [Ranking(p) for p in itertools.permutations(range(m)) if p != gt.order]
    rows: list[dict] = []
    for beta in beta_grid:
        vals = ValueProfile(tuple(math.exp(-beta * j) for j in range(m)))
        outcomes: dict[str, dict[Ranking, float]] = {}
        if "mallows" in families:
            h = HumanType(gt, MallowsModel(gt, phi), vals, 1.0)
            aligned = joint_utility(h, AlgorithmPolicy(gt, phi, k))
            outcomes["mallows"] = {
                c: joint_utility(h, AlgorithmPolicy(c, phi, k)) - aligned for c in centers
            }
        if "rum" in families:
            item_vals = tuple(vals[gt.position(x)] for x in range(m))
            h = HumanType(gt, PlackettLuceModel(item_vals, gumbel_beta), vals, 1.0)

            def rum_utility(center: Ranking) -> float:
                alg_vals = tuple(vals[center.position(x)] for x in range(m))
                menus = model_menu_distribution(
                    PlackettLuceModel(alg_vals, gumbel_beta), k
                )
                return expected_utility(joint_pick_from_menus(h, menus), h)

            aligned = rum_utility(gt)
            outcomes["rum"] = {c: rum_utility(c) - aligned for c in centers}
        for family, diffs in outcomes.items():
            for center, diff in diffs.items():
                rows.append(
                    {
                        "beta": beta,
                        "family": family,
                        "center": " ".join(str(x + 1) for x in center.order),
                        "utility_difference": diff,
                    }
                )
    return rows


def _head_population(values: ValueProfile, t: int, gamma: float, phi_h: float) -> Population:
    """t! Mallows(phi_h) types differing only in their top-t order, weighted Mallows(gamma)."""
    head_model = MallowsModel(Ranking.identity(t), gamma)
    types = []
    for perm in itertools.permutations(range(t)):
        weight = head_model.perm_prob(Ranking(perm))
        gt = Ranking(tuple(perm) + tuple(range(t, values.m)))
        types.append(HumanType(gt, MallowsModel(gt, phi_h), values, weight))
    return Population(tuple(types))


def tension_population(gamma: float, phi_h: float) -> Population:
    """Six types differing only in their top-3 order, weighted Mallows(gamma)."""
    return _head_population(ValueProfile(TENSION_VALUES), 3, gamma, phi_h)


def tension_experiment(gamma: float = 3.0, phi_grid=TENSION_PHI_GRID, k: int = 3) -> list[dict]:
    """Optimal welfare with and without the uplift constraint, per accuracy."""
    rows: list[dict] = []
    for phi_h in _validated_grid(phi_grid, "accuracy"):
        pop = tension_population(gamma, phi_h)
        unconstrained = enumerate_best_menu(pop, k)
        constrained = optimize_with_uplift(pop, k)
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
    gt1 = Ranking.identity(m)
    order = list(range(m))
    order[0], order[3] = order[3], order[0]
    gt2 = Ranking(tuple(order))
    values = _bench_values(m)
    return Population(
        (
            HumanType(gt1, MallowsModel(gt1, 1.0), values, 0.5),
            HumanType(gt2, MallowsModel(gt2, 1.0), values, 0.5),
        )
    )


def mip_bench(
    sizes=(8, 10, 12),
    k_list=(2, 4),
    type_counts=(1, 2, 3),
    solver: str = "bnb",
) -> list[dict]:
    """Timing study over instance sizes and population sizes.

    The two-type family swaps the first and fourth item between its types
    while varying ``m``; the population family fixes ``m`` and grows the
    number of types factorially, so a type count above ``ENUMERATION_CAP``
    is refused before any population is built. ``solver`` is ``bnb`` or
    ``mip`` (external, via SciPy's HiGHS). Rows with C(m, k) <= 5000 are
    checked against enumeration.
    """
    too_many = [t for t in type_counts if t > ENUMERATION_CAP]
    if too_many:
        raise CapacityError(f"bench type counts {too_many} exceed the cap t <= {ENUMERATION_CAP} (t! types)")
    rows: list[dict] = []
    for m in sizes:
        if m < 4:
            raise DomainError("bench sizes need m >= 4")
        for k in k_list:
            if k > m:
                continue
            pop = _bench_two_type_population(m)
            rows.append(_bench_row("two-type", pop, m, k, solver))
    m_pop = max(sizes)
    for t in type_counts:
        pop = _head_population(_bench_values(m_pop), t, 1.0, 1.0)
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
    """Write rows with a deterministic column order (insertion order of row 0)."""
    if not rows:
        raise DomainError("no rows to write")
    fieldnames = list(rows[0].keys())
    if hasattr(destination, "write"):
        _write_csv(rows, destination, fieldnames)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        _write_csv(rows, handle, fieldnames)


def _write_csv(rows, handle, fieldnames) -> None:
    writer = csv.DictWriter(handle, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k, "")) for k in fieldnames})


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _nonempty_list(check, noun: str):
    def is_list(x) -> bool:
        return isinstance(x, (list, tuple)) and len(x) > 0 and all(check(v) for v in x)

    return is_list, f"a nonempty list of {noun}"


_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
_INTS = _nonempty_list(_is_int, "integers")
_NUMBERS = _nonempty_list(_is_number, "numbers")

# The knobs each experiment accepts, beyond "experiment" and "output": a key
# is the driver's parameter of that name, and a knob left out takes the
# driver's default. Each maps to (check, what the check wants).
EXPERIMENTS = {
    "sushi": {
        "profile": (lambda x: isinstance(x, str), "a profile path"),
        "phi_grid": _NUMBERS,
        "k": _INT,
        "allow_any_m": (lambda x: isinstance(x, bool), "true or false"),
    },
    "beta-sweep": {
        "beta_grid": _NUMBERS,
        "m": _INT,
        "k": _INT,
        "phi": _NUMBER,
        "gumbel_beta": _NUMBER,
        "families": _nonempty_list(lambda x: x in ("mallows", "rum"), "'mallows' and 'rum'"),
    },
    "tension": {"gamma": _NUMBER, "phi_grid": _NUMBERS, "k": _INT},
    "bench": {
        "sizes": _INTS,
        "k_list": _INTS,
        "type_counts": _INTS,
        "solver": (lambda x: x in ("bnb", "mip"), "'bnb' or 'mip'"),
    },
}


def run_config(config) -> list[str]:
    """Run the experiment a JSON config selects; returns written output paths.

    ``config`` is a dict or the path of a JSON file holding one. It needs
    ``experiment`` (a name in ``EXPERIMENTS``) and ``output`` (the CSV path);
    any other key must be one of that experiment's knobs, with a value of
    the type its table names, or the run is refused with a ``DomainError``.
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
    accepted = EXPERIMENTS[name]
    for key, value in knobs.items():
        if key not in accepted:
            raise DomainError(
                f"unknown key {key!r} for experiment {name!r}; valid keys: {', '.join(accepted)}"
            )
        check, wanted = accepted[key]
        if not check(value):
            raise DomainError(f"config key {key!r} must be {wanted}, got {value!r}")
    if "profile" in knobs:
        knobs["profile"] = load_profile(knobs["profile"])
    driver = {
        "sushi": sushi_experiment,
        "beta-sweep": beta_sweep,
        "tension": tension_experiment,
        "bench": mip_bench,
    }[name]
    rows = driver(**knobs)
    emit_csv(rows, output)
    return [str(output)]
