"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a tiny-size run of every workload prints every metric named in
BENCHMARK.json with its unit, that corrupted results and raising tasks are
counted as failures, that the enumeration oracle agrees with the library's
own oracles, and that tracing rebinds and restores every wrapped function.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shortlist import choice, models, optimize  # noqa: E402
from shortlist.rankings import Ranking  # noqa: E402


def check_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", "3",
                       "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            child = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
            assert child.returncode == 0, child.stderr
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace, got, want)
            text = "\n".join(lines[:-1])
            for name, unit in want.items():
                assert any(name in line and unit in line.split() for line in lines[:-1]), (name, text)
        print(f"ok: {workload['name']} prints every metric with its unit")


CSV_FIELDS = {"sushi": ("studies.csv", "welfare"), "tension": ("studies.csv", "welfare_unconstrained"),
              "beta": ("beta-sweep.csv", "utility_difference")}


def _corrupt(kind: str, result):
    """The same result with one number moved slightly."""
    if kind in CSV_FIELDS:
        name, column = CSV_FIELDS[kind]
        path = run.OUT / name
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        rows[0][column] = repr(float(rows[0][column]) + 1e-9)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return result
    if kind in ("enumerate", "bnb"):
        return dataclasses.replace(result, welfare=result.welfare + 1e-9)
    if kind == "uplift":
        return dataclasses.replace(result, social_welfare=result.social_welfare + 1e-9)
    if kind == "swap":
        return dataclasses.replace(result, utility_delta=result.utility_delta + 1e-6)
    if kind == "pl":
        menus, dist = result
        menus = dict(menus)
        first = next(iter(menus))
        menus[first] += 1e-9
        return menus, dist
    if kind == "mip":
        lp_value, value, menu = result
        return lp_value + 1e-6, value, menu
    raise AssertionError(f"no corruption for task kind {kind}")


def check_failures_counted():
    for name in workloads.NAMES:
        workload = workloads.make(name, 5, run.OUT, tiny=True)
        tasks = workload.tasks[: 2 * workload.pass_tasks]
        for task in tasks:
            task.run = lambda original=task.run, kind=task.kind: _corrupt(kind, original())
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI reports each file it writes
            outcomes = run._measure(workload, tasks, 2)
        failed, known_only = run._failures(outcomes)
        assert failed == len(tasks), (name, [(o.kind, o.failure) for o in outcomes])
        # a wrong answer marks the run incorrect; the tiny mip task has m = 5,
        # outside the documented solve_mip defect regime
        assert not known_only, (name, [(o.kind, o.failure) for o in outcomes])

        raising = workloads.make(name, 5, run.OUT, tiny=True).tasks[:1]
        raising[0].run = lambda: 1 / 0
        with contextlib.redirect_stdout(io.StringIO()):
            failed, known_only = run._failures(run._measure(workload, raising, 1))
        assert failed == 1 and not known_only, name
        print(f"ok: {name} counts corrupted results and raising tasks as failed and incorrect")


def check_mip_defect_regime():
    """Only full-solve misses from m = 10 and LP drift from m = 12 are excused."""
    for m, stage, excused in ((9, "full", False), (10, "full", True), (12, "full", True),
                              (11, "lp", False), (12, "lp", True), (6, "lp", False)):
        assert (workloads.mip_failure(m, stage) is workloads.KnownDefect) == excused, (m, stage)
    failure = workloads.mip_failure(10, "full")("wrong optimum")
    assert run._failures([run.Outcome("mip", 1.0, failure)]) == (1, True)
    failure = workloads.mip_failure(8, "full")("wrong optimum")
    assert run._failures([run.Outcome("mip", 1.0, failure)]) == (1, False)
    print("ok: only the documented solve_mip regime leaves the run correct")


def check_oracle():
    rng = np.random.default_rng(11)
    m = 5
    ranks = oracle.Rankings(m)
    center = Ranking(tuple(int(x) for x in rng.permutation(m)))
    family = [
        (models.MallowsModel(center, 0.7), ranks.mallows(center.order, 0.7)),
        (models.PlackettLuceModel(tuple(rng.uniform(0, 1, m)), 0.4), None),
    ]
    for model, probs in family:
        if probs is None:
            probs = ranks.plackett_luce(model.item_values, model.beta)
        for k in (2, 3):
            dist = ranks.menu_probs(probs, k)
            for menu in itertools.combinations(range(m), k):
                menu = frozenset(menu)
                want = models.enumerate_event_prob(model, lambda r, menu=menu: r.top(k) == menu)
                assert abs(dist[menu] - want) <= 1e-12, (model, menu)
                pick = ranks.pick_probs(probs, menu)
                ref = choice.oracle_choice_dist(model, menu)
                assert all(abs(pick[x] - ref[x]) <= 1e-12 for x in range(m)), (model, menu)
    print("ok: enumeration oracle agrees with the library's oracles")


def check_binding_restored():
    original = optimize.enumerate_best_menu
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert optimize.enumerate_best_menu is not original
        assert models.MallowsModel.topk_set_prob.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert optimize.enumerate_best_menu is original
    assert not hasattr(models.MallowsModel.topk_set_prob, "__wrapped__")
    print("ok: tracing wraps and restores every binding")


if __name__ == "__main__":
    run.OUT.mkdir(parents=True, exist_ok=True)
    check_oracle()
    check_binding_restored()
    check_mip_defect_regime()
    check_failures_counted()
    check_printed_metrics()
    print("selftest passed")
