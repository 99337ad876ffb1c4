"""The four benchmark workloads: seeded task lists and their correctness checks.

A workload is a fixed list of user-level tasks made from the seed. The size
of each task (m, k, number of types, task kind) follows a schedule that does
not depend on the seed, so every seed runs the same mix of sizes; the seed
draws everything else (rankings, values, accuracies, grids). Continuous
accuracies keep the library's per-(m, phi) LRU caches from being reused
across tasks.

A run executes whole passes over the workload's cycle of sizes, so every run
of a workload with the same ``--seconds`` measures the same mix of sizes.

The library is called through its modules (``optimize.enumerate_best_menu``)
rather than through names imported here, so the traced run's wrappers see
every call.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from shortlist import analysis, cli, collab, experiments, models, optimize, rankings, welfare
from shortlist.rankings import AlgorithmPolicy, HumanType, Population, Ranking, ValueProfile

from oracle import Rankings, utility

EXACT = 1e-12  # agreement with enumeration
LP_TOL = 1e-9  # fixed-menu LP value against the table utility
MIP_GAP = 1e-4  # HiGHS's default relative MIP gap


class CheckFailed(Exception):
    """A task's result disagrees with its reference."""


class KnownDefect(CheckFailed):
    """``solve_mip`` missed its reference inside the documented regime.

    The library documents that its SciPy/HiGHS integer path degrades above
    about m = 10. The regime is narrow on purpose: a wrong or failed full
    MIP solve at m >= 10, and fixed-menu LP drift past 1e-9 at m >= 12, the
    only size where it has been seen. These tasks count in ``failed`` like
    any other, but they do not mark the run's output as incorrect; every
    other miss does.
    """


MIP_FULL_DEFECT_M = 10  # full solves may miss or fail from this m on
MIP_LP_DEFECT_M = 12  # fixed-menu LP drift past LP_TOL has been seen from this m on


def mip_failure(m: int, stage: str) -> type[CheckFailed]:
    """The exception class for a ``solve_mip`` miss at ``stage`` ("lp" or "full")."""
    limit = MIP_LP_DEFECT_M if stage == "lp" else MIP_FULL_DEFECT_M
    return KnownDefect if m >= limit else CheckFailed


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    tasks: list[Task]
    warmup: Task
    # tasks in one pass over the cycle of sizes and kinds; a run executes
    # whole passes
    pass_tasks: int
    # CPU seconds of one pass on the reference machine (2-vCPU VM); a run of
    # S seconds executes round(S / pass_seconds) passes, at least one
    pass_seconds: float


def _shuffled(label: str, sizes) -> list[tuple]:
    """The sizes in a fixed order that ignores the seed."""
    sizes = list(sizes)
    random.Random(label).shuffle(sizes)
    return sizes


def _require(ok: bool, message: str, defect=CheckFailed):
    if not ok:
        raise defect(message)


def _close(got: float, want: float, tol: float, what: str):
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, reference {want!r}")


def _perm(rng, m: int) -> Ranking:
    return Ranking(tuple(int(x) for x in rng.permutation(m)))


def _decreasing_values(rng, m: int) -> ValueProfile:
    return ValueProfile(tuple(float(v) for v in np.sort(rng.uniform(0.0, 1.0, m))[::-1]))


def _phi(rng) -> float:
    return float(rng.uniform(0.2, 1.5))


def _weights(rng, n: int) -> list[float]:
    raw = rng.uniform(0.2, 1.0, n)
    return [float(w) for w in raw / raw.sum()]


def _grid_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _menu_items(label: str) -> frozenset[int]:
    return frozenset(int(x) - 1 for x in label.split("+"))


def _cli_task(kind: str, argv: list[str], output: Path, check_rows) -> Task:
    def run():
        return cli.main(argv)

    def check(code):
        _require(code == 0, f"exit code {code}")
        check_rows(_read_csv(output))

    return Task(kind, run, check)


# ---------------------------------------------------------------------------
# studies: the shipped sushi and tension drivers through the CLI


def _studies(rng, out: Path, tiny: bool) -> Workload:
    profile = experiments.sushi_profile()
    sushi_centers = [r for r, _ in profile.entries]
    sushi_weights = profile.fractions()
    borda = rankings.borda_values(profile.m)
    r5, r3, r6 = Rankings(profile.m), Rankings(3), Rankings(6)
    # each driver's default grid length: 13 sushi and 11 tension accuracies
    sushi_points, tension_points = (3, 3) if tiny else (13, 11)

    def accuracy_grid(points: int) -> list[float]:
        return sorted(float(x) for x in rng.uniform(0.0, 3.0, points))

    def sushi_task(path: Path) -> Task:
        grid = accuracy_grid(sushi_points)

        def check_rows(rows):
            _require(len(rows) == 3 * len(grid), f"{len(rows)} rows for {len(grid)} accuracies")
            by_phi: dict[float, list] = {}
            for row in rows:
                phi = float(row["phi_h"])
                if phi not in by_phi:
                    by_phi[phi] = [r5.mallows(c.order, phi) for c in sushi_centers]
                menu = _menu_items(row["menu"])
                want = math.fsum(
                    w * utility(r5.pick_probs(p, menu), [borda[c.position(x)] for x in range(c.m)])
                    for c, w, p in zip(sushi_centers, sushi_weights, by_phi[phi])
                )
                _close(float(row["welfare"]), want, EXACT, f"sushi welfare phi={phi} {row['algorithm']}")
            _require(sorted(by_phi) == grid, "reported accuracies differ from the grid")

        argv = ["experiment", "sushi", "--phi-grid", _grid_arg(grid), "--output", str(path)]
        return _cli_task("sushi", argv, path, check_rows)

    def tension_task(path: Path) -> Task:
        gamma = float(rng.uniform(1.0, 5.0))
        grid = accuracy_grid(tension_points)
        heads = list(itertools.permutations(range(3)))
        weights = r3.mallows(range(3), gamma)

        def population_welfare(phi: float, label: str) -> float:
            menu = _menu_items(label)
            total = []
            for head, w in zip(heads, weights):
                center = Ranking(head + (3, 4, 5))
                values = [experiments.TENSION_VALUES[center.position(x)] for x in range(6)]
                total.append(w * utility(r6.pick_probs(r6.mallows(center.order, phi), menu), values))
            return math.fsum(total)

        def check_rows(rows):
            _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} accuracies")
            for row, phi in zip(rows, grid):
                _close(float(row["phi_h"]), phi, 0.0, "tension accuracy")
                best = float(row["welfare_unconstrained"])
                _close(best, population_welfare(phi, row["menu_unconstrained"]), EXACT,
                       f"tension welfare phi={phi}")
                if row["menu_uplift_constrained"] != "infeasible":
                    constrained = float(row["welfare_uplift_constrained"])
                    _close(constrained, population_welfare(phi, row["menu_uplift_constrained"]),
                           EXACT, f"tension constrained welfare phi={phi}")
                    _require(constrained <= best + EXACT, "constrained welfare beats the optimum")

        argv = ["experiment", "tension", "--gamma", repr(gamma), "--phi-grid",
                _grid_arg(grid), "--output", str(path)]
        return _cli_task("tension", argv, path, check_rows)

    path = out / "studies.csv"
    warmup = sushi_task(path)
    tasks = [sushi_task(path) if i % 2 == 0 else tension_task(path) for i in range(2000)]
    return Workload(tasks, warmup, pass_tasks=2, pass_seconds=STUDIES_PASS_S)


# ---------------------------------------------------------------------------
# optimize: enumeration and branch and bound on the same populations


BENCH_VALUES = (4.0, 3.0, 2.0, 1.0)

# (m, k, types, value family). It spans m 12-16, k 3-4 and 3-6 types for
# both families, including m = 16, k = 4 with decreasing values, where B&B
# evaluates every menu. Each instance is one enumeration and one B&B task.
OPTIMIZE_CYCLE = (
    (12, 4, 6, "decreasing"),
    (13, 4, 4, "bench"),
    (15, 3, 6, "decreasing"),
    (14, 4, 3, "bench"),
    (16, 4, 3, "decreasing"),
    (16, 3, 5, "bench"),
)


def _optimize_population(rng, m: int, n: int, family: str) -> Population:
    weights = _weights(rng, n)
    types = []
    if family == "decreasing":
        for w in weights:
            gt = _perm(rng, m)
            types.append(HumanType(gt, models.MallowsModel(gt, _phi(rng)), _decreasing_values(rng, m), w))
    else:
        values = ValueProfile(BENCH_VALUES + (0.0,) * (m - len(BENCH_VALUES)))
        heads = list(itertools.permutations(range(3)))
        for w, h in zip(weights, rng.choice(len(heads), size=n, replace=False)):
            gt = Ranking(heads[h] + tuple(range(3, m)))
            types.append(HumanType(gt, models.MallowsModel(gt, _phi(rng)), values, w))
    return Population(tuple(types))


def _optimize(rng, out: Path, tiny: bool) -> Workload:
    schedule = [(8, 2, 2, "decreasing"), (8, 2, 3, "bench")] if tiny else OPTIMIZE_CYCLE

    def instance(m, k, n, family) -> list[Task]:
        pop = _optimize_population(rng, m, n, family)
        reference = {}

        def check_enum(res):
            _require(res.evaluations == math.comb(m, k), f"{res.evaluations} of C({m},{k}) menus")
            _close(res.welfare, math.fsum(w * u for w, u in zip(pop.weights(), res.per_type)),
                   EXACT, "welfare against per-type utilities")
            reference["enum"] = res

        def check_bnb(res):
            ref = reference.get("enum") or optimize.enumerate_best_menu(pop, k)
            _require(res.menu == ref.menu, f"B&B menu {res.menu}, enumeration {ref.menu}")
            _close(res.welfare, ref.welfare, EXACT, "B&B welfare against enumeration")

        return [
            Task("enumerate", lambda: optimize.enumerate_best_menu(pop, k), check_enum),
            Task("bnb", lambda: optimize.branch_and_bound_menu(pop, k), check_bnb),
        ]

    warmup = instance(8, 2, 2, "decreasing")
    tasks = []
    for i in range(400):
        tasks += instance(*schedule[i % len(schedule)])
    return Workload(tasks, warmup[0], pass_tasks=2 * len(schedule), pass_seconds=OPTIMIZE_PASS_S)


# ---------------------------------------------------------------------------
# noisy-policy: single humans against a noisy algorithm

ORACLE_MAX_M = 7


def _mallows_human(rng, m: int) -> HumanType:
    gt = _perm(rng, m)
    return HumanType(gt, models.MallowsModel(gt, _phi(rng)), _decreasing_values(rng, m), 1.0)


def _item_values(h: HumanType) -> list[float]:
    return [h.value_of(x) for x in range(h.m)]


def _mallows_probs(ranks: Rankings, model) -> np.ndarray:
    return ranks.mallows(model.center.order, model.phi)


def _noisy_policy(rng, out: Path, tiny: bool) -> Workload:
    sizes = [(6, 3)] if tiny else _shuffled("noisy-policy", itertools.product(range(6, 11), (3, 4, 5)))
    oracles = {m: Rankings(m) for m in range(4, ORACLE_MAX_M + 1)}
    beta_points = 2 if tiny else 13  # the driver's default grid length

    def uplift_task(m, k) -> Task:
        h = _mallows_human(rng, m)
        a = AlgorithmPolicy(_perm(rng, m), _phi(rng), k)
        values = _item_values(h)

        def check(report):
            outcome = report.per_type[0]
            _close(report.social_welfare, outcome.joint, 0.0, "single-type welfare")
            if m > ORACLE_MAX_M:
                for u in (outcome.solo, outcome.joint):
                    _require(min(values) - EXACT <= u <= max(values) + EXACT, f"utility {u} out of range")
                return
            ranks = oracles[m]
            hp = _mallows_probs(ranks, h.noise)
            menus = ranks.menu_probs(ranks.mallows(a.center.order, a.accuracy), k)
            _close(outcome.solo, utility(ranks.pick_probs(hp, range(m)), values), EXACT, "solo utility")
            _close(outcome.joint, utility(ranks.joint_pick(hp, menus), values), EXACT, "joint utility")

        return Task("uplift", lambda: welfare.verify_uplift(Population.single(h), a), check)

    def swap_task(m, k) -> Task:
        h = _mallows_human(rng, m)
        a = AlgorithmPolicy(_perm(rng, m), _phi(rng), k)
        p, q = sorted(int(x) for x in rng.choice(m, size=2, replace=False))
        i, j = a.center.order[p], a.center.order[q]
        values = _item_values(h)

        def check(report):
            before = np.array([report.item_probs[x][0] for x in range(m)])
            after = np.array([report.item_probs[x][1] for x in range(m)])
            _close(report.utility_delta, utility(after, values) - utility(before, values), 1e-9,
                   "utility delta against item probabilities")
            if m > ORACLE_MAX_M:
                _close(math.fsum(before), 1.0, 1e-9, "pick mass before the swap")
                _close(math.fsum(after), 1.0, 1e-9, "pick mass after the swap")
                return
            ranks = oracles[m]
            hp = _mallows_probs(ranks, h.noise)
            swapped = rankings.apply_swap(a.center, i, j)
            for center, got, label in ((a.center, before, "before"), (swapped, after, "after")):
                want = ranks.joint_pick(hp, ranks.menu_probs(ranks.mallows(center.order, a.accuracy), k))
                _close(float(np.max(np.abs(got - want))), 0.0, EXACT, f"pick distribution {label} the swap")

        return Task("swap", lambda: analysis.swap_effect(h, a, i, j), check)

    def pl_task(m, k) -> Task:
        scores = rng.uniform(0.0, 1.0, m)
        human = models.PlackettLuceModel(tuple(float(s) for s in scores), float(rng.uniform(0.1, 1.0)))
        ranked = tuple(sorted((float(s) for s in scores), reverse=True))
        h = HumanType(human.center, human, ValueProfile(ranked), 1.0)
        alg = models.PlackettLuceModel(
            tuple(float(s) for s in scores + rng.normal(0.0, 0.3, m)), float(rng.uniform(0.1, 1.0))
        )

        def run():
            menus = models.model_menu_distribution(alg, k)
            return menus, collab.joint_pick_from_menus(h, menus)

        def check(result):
            menus, dist = result
            _require(len(menus) == math.comb(m, k), f"{len(menus)} menus, C({m},{k}) expected")
            _close(math.fsum(menus.values()), 1.0, EXACT, "menu probability mass")
            if m > ORACLE_MAX_M:
                return
            ranks = oracles[m]
            want_menus = ranks.menu_probs(ranks.plackett_luce(alg.item_values, alg.beta), k)
            for menu, p in want_menus.items():
                _close(menus.get(menu, 0.0), p, EXACT, f"P[menu {sorted(menu)}]")
            want = ranks.joint_pick(ranks.plackett_luce(human.item_values, human.beta), want_menus)
            for x in range(m):
                _close(dist[x], float(want[x]), EXACT, f"P[pick {x}]")

        return Task("pl", run, check)

    def beta_task(path: Path) -> Task:
        grid = sorted(float(x) for x in rng.uniform(0.0, 6.0, beta_points))
        m, k, phi, gb = 4, 2, 0.5, 0.1  # the CLI's beta-sweep: m, k, accuracy, Gumbel scale
        ranks = oracles[m]
        gt = tuple(range(m))

        def joint(beta: float, family: str, center: tuple) -> float:
            values = [math.exp(-beta * j) for j in range(m)]
            if family == "mallows":
                hp, ap = ranks.mallows(gt, phi), ranks.mallows(center, phi)
            else:
                alg_values = [values[center.index(x)] for x in range(m)]
                hp, ap = ranks.plackett_luce(values, gb), ranks.plackett_luce(alg_values, gb)
            return utility(ranks.joint_pick(hp, ranks.menu_probs(ap, k)), values)

        def check_rows(rows):
            centers = math.factorial(m) - 1
            _require(len(rows) == 2 * centers * len(grid), f"{len(rows)} rows")
            aligned = {}
            for row in rows:
                beta, family = float(row["beta"]), row["family"]
                center = tuple(int(x) - 1 for x in row["center"].split())
                if (beta, family) not in aligned:
                    aligned[beta, family] = joint(beta, family, gt)
                want = joint(beta, family, center) - aligned[beta, family]
                _close(float(row["utility_difference"]), want, EXACT,
                       f"beta-sweep {family} beta={beta} center={row['center']}")
            _require(sorted({b for b, _ in aligned}) == grid, "reported decays differ from the grid")

        argv = ["experiment", "beta-sweep", "--beta-grid", _grid_arg(grid), "--output", str(path)]
        return _cli_task("beta", argv, path, check_rows)

    # the four task kinds in equal share: one of each per (m, k) of the cycle
    path = out / "beta-sweep.csv"
    tasks = []
    for i in range(400):
        m, k = sizes[i % len(sizes)]
        tasks += [uplift_task(m, k), swap_task(m, k), pl_task(m, k), beta_task(path)]
    warmup = beta_task(path)
    return Workload(tasks, warmup, pass_tasks=4 * len(sizes), pass_seconds=NOISY_PASS_S)


# ---------------------------------------------------------------------------
# mip: build, export, fixed-menu LP and full MIP solve


# (m, k, types). The MIP grows with types x m^3, so the types shrink as m
# grows; with three types at m = 12 one solve can take 16 s. On a 2-vCPU VM
# the small sizes solve in about 0.2-0.6 s each.
MIP_SMALL = (
    (6, 3, 2), (6, 4, 2), (6, 2, 3), (6, 3, 3), (6, 4, 3), (7, 2, 2),
    (7, 2, 3), (7, 3, 2), (8, 2, 1), (8, 3, 1), (8, 4, 1), (8, 2, 2),
)
# At m >= 9 a solve takes 1-3.5 s on the same VM. From m = 10 on, the
# bundled integer path misses the optimum on some instances and then returns
# within 0.1-0.5 s, so the number of misses moves the time of a run by about
# 2 s each. One large size leads each pass, followed by two instances of each
# small size, so that the misses move a run's throughput by several percent
# rather than by tens of percent.
MIP_LARGE = ((12, 4, 1), (10, 4, 1), (12, 3, 1), (11, 4, 1), (9, 4, 1))


def _mip_schedule() -> list[tuple]:
    small = _shuffled("mip", MIP_SMALL)
    return [size for large in MIP_LARGE for size in (large, *small, *small)]


def _mip(rng, out: Path, tiny: bool) -> Workload:
    schedule = [(5, 2, 1)] if tiny else _mip_schedule()

    def mip_task(m, k, t) -> Task:
        weights = _weights(rng, t)
        types = []
        for w in weights:
            gt = _perm(rng, m)
            types.append(HumanType(gt, models.MallowsModel(gt, _phi(rng)), _decreasing_values(rng, m), w))
        pop = Population(tuple(types))
        best: dict[int, object] = {}

        def prepare():
            # the enumerated optima are the fixed-menu input and the reference
            if not best:
                best.update({kk: optimize.enumerate_best_menu(pop, kk) for kk in range(1, k + 1)})

        def run():
            mip = optimize.build_mip(pop, k)
            optimize.export_lp(mip, io.StringIO())
            lp_value, _ = optimize.solve_mip(mip, fix_menu=best[k].menu)
            try:
                value, menu = optimize.solve_mip(mip)
            except RuntimeError as exc:
                return lp_value, None, str(exc)
            return lp_value, value, menu

        def check(result):
            lp_value, value, menu = result
            _require(abs(lp_value - best[k].welfare) <= LP_TOL,
                     f"fixed-menu LP value {lp_value!r} vs table {best[k].welfare!r} m={m} k={k}",
                     mip_failure(m, "lp"))
            _require(value is not None, f"full MIP solve failed m={m} k={k}: {menu}", mip_failure(m, "full"))
            want = max(r.welfare for r in best.values())
            _require(abs(value - want) <= MIP_GAP * abs(want),
                     f"MIP optimum {value!r} (menu {menu}) vs enumerated {want!r} m={m} k={k} types={t}",
                     mip_failure(m, "full"))

        return Task("mip", run, check, prepare)

    warmup = mip_task(5, 2, 1)
    tasks = [mip_task(*schedule[i % len(schedule)]) for i in range(300)]
    return Workload(tasks, warmup, pass_tasks=1 if tiny else 1 + 2 * len(MIP_SMALL), pass_seconds=MIP_PASS_S)


# CPU seconds of one pass of each workload on a 2-vCPU VM (see Workload)
STUDIES_PASS_S = 0.8
OPTIMIZE_PASS_S = 8.9
NOISY_PASS_S = 12.3
MIP_PASS_S = 10.4

MAKERS = {"studies": _studies, "optimize": _optimize, "noisy-policy": _noisy_policy, "mip": _mip}
NAMES = tuple(MAKERS)


def make(name: str, seed: int, out: Path, tiny: bool = False) -> Workload:
    """Build a workload's task list; the same seed gives the same inputs."""
    rng = np.random.default_rng([abs(seed), int(seed < 0), NAMES.index(name)])
    out.mkdir(parents=True, exist_ok=True)
    return MAKERS[name](rng, out, tiny)
