"""Benchmark for the shortlist library: seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload studies --seed 1 --seconds 20 --trace 0

Runs the workload's tasks one after another (closed loop, one client), checks
every result outside the timed region, and prints the end-to-end metrics.
A run executes whole passes over the workload's cycle of sizes: as many as
take about ``--seconds`` of CPU time on the reference machine, so every run of
a workload measures the same mix of tasks. ``--trace 1`` prints the
per-layer metrics instead: it runs each task twice, untraced and with spans
around every public library call, in alternating order, and reports the gap
in tasks per second as the tracing overhead. ``--workload all`` runs the four
workloads one after another, each in its own process.

Task times are CPU time of the process, not wall time, scaled to a
reference host speed. On a shared VM the host takes the CPU away in phases,
which moves the wall time of a fixed loop by up to a factor of two; the
library runs on one thread, so its CPU time is the wall time on an unshared
host. CPU time still moves with the host, by up to 1.6x over tens of seconds,
so a fixed reference kernel that does not call the library runs between
tasks, and each task's CPU time is multiplied by the kernel's reference
time over its CPU time around the task (see HostSpeed). Raw CPU and wall times are
printed beside the metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` ({name: {value, unit}}).
The library is imported from ``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("studies", "optimize", "noisy-policy", "mip")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps this many tasks above it
WALL_CAP_S = 120.0  # a run stops at the next pass boundary after this much wall time
clock = time.process_time


@dataclass
class Outcome:
    kind: str
    seconds: float  # CPU time scaled to the reference host speed
    failure: BaseException | None
    cpu_seconds: float = 0.0  # CPU time as measured


class HostSpeed:
    """A fixed kernel that mixes what the library's layers do, without the library.

    Interpreter loops and small NumPy operations, plus one small HiGHS solve
    through SciPy when the process has already imported ``scipy.optimize``
    (so the kernel adds nothing to peak memory elsewhere). Its CPU time,
    taken between tasks, tracks how fast the shared host runs the process at
    that moment. ``reference`` is the kernel's median CPU time on a 2-vCPU VM
    inside a workload's process (the solve takes about twice as long there
    as in a fresh interpreter); it only sets the unit of the scaled times.
    """

    def __init__(self):
        import numpy as np

        self._vector = np.arange(32.0)
        self._solve = None
        self.reference = 0.0078
        if "scipy.optimize" in sys.modules:
            from scipy.optimize import LinearConstraint, milp

            rng = np.random.default_rng(0)
            weights, values = rng.uniform(1.0, 2.0, 14), rng.uniform(1.0, 2.0, 14)
            self._solve = lambda: milp(-values, constraints=LinearConstraint(weights[None, :], 0.0, 6.0),
                                       integrality=np.ones(14), bounds=(0.0, 1.0))
            self.reference = 0.034
        self.sample()  # the first call pays for cold caches and lazy set-up

    def sample(self) -> float:
        start = clock()
        total = 0.0
        for _ in range(1000):
            total += float(self._vector @ self._vector)
            total += sum(j * j for j in range(60))
        if self._solve is not None:
            self._solve()
        return clock() - start


def _setup(name: str, seed: int, tiny: bool):
    """Import the library and build the workload's inputs; returns (workload, CPU seconds)."""
    start = clock()
    import shortlist  # noqa: F401  (the first import of the library is part of set-up)
    import workloads

    workload = workloads.make(name, seed, OUT, tiny)
    return workload, clock() - start


def _setup_seconds(name: str, seed: int, tiny: bool) -> list[float]:
    """Set-up CPU time of fresh interpreters, so that every sample pays the import.

    It is not scaled by HostSpeed: import and file reading do not follow the
    kernel's speed, and scaling made the set-up figures spread more.
    """
    command = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            command + (["--tiny"] if tiny else []), capture_output=True, text=True, timeout=120, check=False
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up run failed: {child.stderr.strip()}")
        samples.append(float(child.stdout.split()[-1]))
    return samples


def _passes(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.pass_seconds))


def _run_task(task, tracer=None):
    """(result, failure, CPU seconds) of one execution of ``task``."""
    gc.collect()
    if tracer is not None:
        tracer.begin_task(task.kind)
    start = clock()
    try:
        result, failure = task.run(), None
    except Exception as exc:  # a raising task is a failed task, not a dead run
        result, failure = None, exc
    finally:
        elapsed = clock() - start
        if tracer is not None:
            tracer.end_task()
    return result, failure, elapsed


def _check(task, result, failure):
    if failure is None:
        try:
            task.check(result)
        except Exception as exc:
            failure = exc
    return failure


def _measure(workload, tasks, passes: int, check=True) -> list[Outcome]:
    """Closed loop: run ``passes`` whole passes of ``tasks`` in order.

    Checks and preparation run outside the timed region. Past WALL_CAP_S of
    wall time the run ends at the next pass boundary.
    """
    outcomes: list[Outcome] = []
    speed = HostSpeed()
    began = time.perf_counter()
    gc.freeze()  # the task list and earlier results are not the library's garbage
    before = speed.sample()
    for i, task in enumerate(tasks[: passes * workload.pass_tasks]):
        if i and i % workload.pass_tasks == 0 and time.perf_counter() - began > WALL_CAP_S:
            break
        if task.prepare is not None:
            task.prepare()
        result, failure, elapsed = _run_task(task)
        after = speed.sample()
        scaled = elapsed * speed.reference / ((before + after) / 2)
        before = after
        failure = _check(task, result, failure) if check else failure
        outcomes.append(Outcome(task.kind, scaled, failure, elapsed))
    return outcomes


def _failures(outcomes) -> tuple[int, bool]:
    """(failed tasks, whether every failure is the documented MIP defect)."""
    import workloads

    failed = [o for o in outcomes if o.failure is not None]
    for o in failed[:5]:
        text = "".join(traceback.format_exception_only(type(o.failure), o.failure)).strip()
        print(f"failed {o.kind} task: {text}", file=sys.stderr)
    return len(failed), all(isinstance(o.failure, workloads.KnownDefect) for o in failed)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND tasks beyond it.

    Returns the latency, its percentile level and the number of tasks beyond
    it. A run too short to have that many reports its slowest task.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clear_library_caches():
    from shortlist import models

    models._insertion_rows.cache_clear()
    models._row_z_values.cache_clear()


def _warm_up(workload):
    if workload.warmup.prepare is not None:
        workload.warmup.prepare()
    _run_task(workload.warmup)


def run_plain(name, seed, seconds, tiny, out) -> dict:
    setup = _setup_seconds(name, seed, tiny)
    workload, _ = _setup(name, seed, tiny)
    _warm_up(workload)
    began = time.perf_counter()
    outcomes = _measure(workload, workload.tasks, _passes(workload, seconds))
    wall = time.perf_counter() - began
    failed, known_only = _failures(outcomes)
    latencies = [o.seconds for o in outcomes]
    timed = math.fsum(latencies)
    tail, level, beyond = _tail(latencies)
    n = len(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (n / timed, "1/s"),
        "task_s_p50": (statistics.median(latencies), "s"),
        "task_s_tail": (tail, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    kinds = sorted({o.kind for o in outcomes})
    raw = [o.cpu_seconds for o in outcomes]
    print(f"workload {name}: closed loop, 1 client, seed {seed}, {n // workload.pass_tasks} passes, "
          f"{timed:.2f} s timed at reference speed ({math.fsum(raw):.2f} CPU s as measured, "
          f"{wall:.2f} s wall with checks), task kinds {', '.join(kinds)}", file=out)
    notes = {
        "setup_s": f"median CPU time of {len(setup)} set-ups in fresh interpreters",
        "tasks_per_s": f"{n} tasks, failed ones included; {n / math.fsum(raw):.4g} per CPU s as measured",
        "task_s_p50": f"n={n}; {statistics.median(raw):.4g} CPU s as measured",
        "task_s_tail": f"p{level:.1f}, {beyond} tasks beyond, n={n}; {_tail(raw)[0]:.4g} CPU s as measured",
        "peak_rss_mb": "peak resident memory of this process",
    }
    for key, (value, unit) in metrics.items():
        print(f"  {key:<14} {value:<12.6g} {unit:<4} ({notes[key]})", file=out)
    print(f"  {'failed_share':<14} {failed / n:<12.6g} {'share':<4} ({failed} of {n} tasks failed)", file=out)
    return {"correct": known_only, "attempted": n, "failed": failed, "metrics": metrics}


def _measure_traced(workload, passes: int, tracer):
    """Each task untraced and traced, in alternating order, caches cleared before each.

    Returns the outcomes of the traced executions (checked), the untraced
    and traced CPU seconds summed over the same tasks, and the insertion
    cache's hits and misses during the traced executions.
    """
    from shortlist import models

    outcomes, plain, traced, hits, misses = [], 0.0, 0.0, 0, 0
    gc.freeze()
    for i, task in enumerate(workload.tasks[: passes * workload.pass_tasks]):
        if task.prepare is not None:
            task.prepare()
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            _clear_library_caches()
            if traced_now:
                result, failure, elapsed = _run_task(task, tracer)
                outcomes.append(Outcome(task.kind, elapsed, failure))
                traced += elapsed
                kept = result
                cache = models._insertion_rows.cache_info()
                hits, misses = hits + cache.hits, misses + cache.misses
            else:
                plain += _run_task(task)[2]
        outcomes[-1].failure = _check(task, kept, outcomes[-1].failure)
    return outcomes, plain, traced, hits, misses


def run_traced(name, seed, seconds, tiny, out) -> dict:
    import spans
    import workloads

    workload, _ = _setup(name, seed, tiny)
    _warm_up(workload)
    tracer = spans.Tracer(clock)
    tracer.install()
    try:
        # every task runs twice, so half the passes keep the run's length
        outcomes, plain, traced, hits, misses = _measure_traced(
            workload, max(1, _passes(workload, seconds) // 2), tracer)
    finally:
        tracer.uninstall()
    missing = tracer.missing(name)
    if missing:
        raise RuntimeError(f"traced functions recorded no call on {name}: {', '.join(missing)}")
    failed, known_only = _failures(outcomes)
    mip_misses = sum(o.kind == "mip" and isinstance(o.failure, workloads.CheckFailed) for o in outcomes)
    overhead = 1.0 - plain / traced
    metrics, shares = spans.summarize(tracer, hits, misses, mip_misses, overhead)
    tracer.write(OUT / f"spans-{name}-{seed}.csv")
    print(f"workload {name}: traced, seed {seed}, {len(outcomes)} tasks, "
          f"{len(tracer.spans)} spans, times are CPU time", file=out)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:<12.6g} {unit}", file=out)
    for kind, rows in shares.items():
        text = ", ".join(f"{layer} {share:.3f}" for layer, share in rows)
        print(f"  self-time share [{kind}]: {text}", file=out)
    return {"correct": known_only, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def _as_json(result: dict) -> str:
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    return json.dumps({**result, "metrics": metrics})


def _real_stdout():
    """Point file descriptor 1 at /dev/null and return a file for the real stdout.

    HiGHS writes straight to descriptor 1 during MIP solves, and the CLI
    prints a line per experiment; neither may reach the metric output.
    """
    sys.stdout.flush()
    out = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return out


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory and caches are its own."""
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command + (["--tiny"] if args.tiny else []), check=False)
        if child.returncode != 0:
            return child.returncode
    return 0


def _default_seconds() -> float:
    spec = ROOT / "BENCHMARK.json"
    return float(json.loads(spec.read_text())["run_seconds"]) if spec.is_file() else 20.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="CPU seconds of work per run on the reference machine (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()

    if not (SRC / "shortlist" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'shortlist'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(_setup(args.workload, args.seed, args.tiny)[1])
        return 0

    out = _real_stdout()
    runner = run_traced if args.trace else run_plain
    print(_as_json(runner(args.workload, args.seed, args.seconds, args.tiny, out)), file=out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
