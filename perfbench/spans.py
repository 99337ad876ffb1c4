"""Spans around the library's public functions, and the per-layer metrics.

``Tracer.install`` replaces each target function with a wrapper at every
place it is bound: the defining module and every ``shortlist`` module that
imported it by name, so calls between layers are seen too. Two class methods
and ``scipy.optimize.milp`` (which ``solve_mip`` imports at call time) are
wrapped on their owners. No file of the library changes.

A span is (name, start, end, parent span, task id, info). Spans exist only
inside a task; checks and set-up run untraced. Spans stay in memory and are
written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg_key(args, kwargs, result):
    return args[0]


def _table_info(args, kwargs, result):
    return len(result[0]), (args[0], args[1])


def _bnb_info(args, kwargs, result):
    return result.nodes, result.evaluations, math.comb(args[0].m, args[1])


def _mip_info(args, kwargs, result):
    return result.num_variables, len(result.constraints)


# (owner, attribute, span name, workloads that must call it, info hook); an
# owner is a module or "module:Class". The layer of a span is its name up to
# the first dot; scipy.milp is its own layer.
TARGETS = (
    ("shortlist.choice", "choice_dist", "choice.choice_dist", ("studies", "optimize", "noisy-policy"), None),
    ("shortlist.models", "model_menu_distribution", "models.menu_dist", ("noisy-policy",), None),
    ("shortlist.models:MallowsModel", "topk_set_prob", "models.topk_mallows", ("noisy-policy",), None),
    ("shortlist.models:PlackettLuceModel", "topk_set_prob", "models.topk_pl", ("noisy-policy",), None),
    ("shortlist.models", "pairwise_matrix", "models.pairwise_matrix", ("optimize",), None),
    ("shortlist.collab", "solo_utility", "collab.solo", ("studies", "noisy-policy"), _arg_key),
    ("shortlist.collab", "joint_utility", "collab.joint_utility", ("noisy-policy",), None),
    ("shortlist.collab", "joint_pick_dist", "collab.joint_pick_dist", ("noisy-policy",), None),
    ("shortlist.collab", "joint_pick_from_menus", "collab.joint_pick_from_menus", ("noisy-policy",), None),
    ("shortlist.welfare", "verify_uplift", "welfare.verify_uplift", ("noisy-policy",), None),
    ("shortlist.optimize", "menu_utility_table", "optimize.table", ("studies", "optimize"), _table_info),
    ("shortlist.optimize", "enumerate_best_menu", "optimize.enumerate", ("studies", "optimize"), None),
    ("shortlist.optimize", "optimize_with_uplift", "optimize.uplift", ("studies",), None),
    ("shortlist.optimize", "branch_and_bound_menu", "optimize.bnb", ("optimize",), _bnb_info),
    ("shortlist.optimize", "build_mip", "optimize.mip.build", ("mip",), _mip_info),
    ("shortlist.optimize", "export_lp", "optimize.mip.export", ("mip",), None),
    ("shortlist.optimize", "solve_mip", "optimize.mip.solve", ("mip",), None),
    ("scipy.optimize", "milp", "scipy.milp", ("mip",), None),
    ("shortlist.analysis", "swap_effect", "analysis.swap", ("noisy-policy",), None),
    ("shortlist.cli", "main", "experiments.cli", ("studies", "noisy-policy"), None),
    ("shortlist.experiments", "sushi_experiment", "experiments.sushi", ("studies",), None),
    ("shortlist.experiments", "tension_experiment", "experiments.tension", ("studies",), None),
    ("shortlist.experiments", "beta_sweep", "experiments.beta_sweep", ("noisy-policy",), None),
    ("shortlist.experiments", "emit_csv", "experiments.emit_csv", ("studies", "noisy-policy"), None),
)

TASK = "task"


def layer_of(name: str) -> str:
    if name == TASK:
        return "harness"
    return name if name.startswith("scipy.") else name.split(".", 1)[0]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans; ``clock`` gives their times (the runner passes CPU time)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._task: int | None = None
        self._task_start: tuple[str, float] = ("", 0.0)
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    # A span's slot is reserved when it starts, so children can name their
    # parent, and filled with a tuple when it ends: tuples of numbers and
    # strings are not scanned by the garbage collector, lists would be.

    def begin_task(self, kind: str):
        self._task = len(self.spans)
        self._stack = [self._task]
        self.spans.append(None)
        self._task_start = (kind, self.clock())

    def end_task(self):
        kind, start = self._task_start
        self.spans[self._task] = (TASK, start, self.clock(), -1, self._task, kind)
        self._task = None
        self._stack = []

    def _wrap(self, name: str, fn, info):
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            task = self._task
            if task is None:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, task, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, task, None if info is None else info(args, kwargs, result))
            return result

        return traced

    # -- binding -----------------------------------------------------------

    def install(self):
        """Wrap every target at every binding; fail if one is left unwrapped."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "shortlist" or n.startswith("shortlist.")]
        originals = []
        for owner_path, attr, name, _, info in TARGETS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            originals.append(original)
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._bindings.append((site, key, value))
                        setattr(site, key, wrapper)
        stale = [
            f"{m.__name__}.{key}"
            for m in modules
            for key, value in vars(m).items()
            if any(value is o for o in originals)
        ]
        if stale:
            raise RuntimeError(f"unwrapped bindings left: {', '.join(stale)}")

    def uninstall(self):
        for site, key, value in reversed(self._bindings):
            setattr(site, key, value)
        self._bindings = []

    def missing(self, workload: str) -> list[str]:
        """Targets meant to run on ``workload`` that recorded no call."""
        seen = {span[0] for span in self.spans}
        return [name for _, _, name, users, _ in TARGETS if workload in users and name not in seen]

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_s,end_s,parent,task\n")
            for i, (name, start, end, parent, task, _) in enumerate(self.spans):
                out.write(f"{i},{name},{start!r},{end!r},{parent},{task}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


class _Stats:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.info: list = []


def summarize(tracer: Tracer, cache_hits: int, cache_misses: int, wrong_optima: int, overhead: float):
    """Per-layer metrics as {name: (value, unit)}, plus self-time shares.

    Counts and seconds are per task or per call, so they do not grow with
    the number of tasks a run happens to complete.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, task, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, _Stats] = defaultdict(_Stats)
    task_kind = {}
    task_time = defaultdict(float)  # by kind
    layer_self = defaultdict(float)  # by (kind, layer)
    for i, (name, start, end, parent, task, info) in enumerate(spans):
        stats = by_name[name]
        stats.calls += 1
        stats.total += end - start
        stats.self_time += end - start - child_time[i]
        if info is not None:
            stats.info.append(info)
        if name == TASK:
            task_kind[i] = info
            task_time[info] += end - start
    for i, (name, start, end, parent, task, _) in enumerate(spans):
        layer_self[task_kind[task], layer_of(name)] += end - start - child_time[i]

    tasks = max(by_name[TASK].calls, 1)
    all_task_time = sum(task_time.values()) or 1.0

    def get(name):
        return by_name.get(name) or _Stats()

    def per_call(name, scale=1.0):
        s = get(name)
        return s.total / s.calls * scale if s.calls else 0.0

    def layer_share(layer, kinds=None):
        kinds = task_time if kinds is None else kinds
        time_in = sum(t for (kind, lay), t in layer_self.items() if lay == layer and kind in kinds)
        total = sum(task_time[k] for k in kinds)
        return time_in / total if total else 0.0

    def self_of(prefix):
        return sum(s.self_time for n, s in by_name.items() if n.startswith(prefix))

    solo = get("collab.solo")
    table = get("optimize.table")
    bnb = get("optimize.bnb")
    build = get("optimize.mip.build")
    solves = get("optimize.mip.solve").calls
    lookups = cache_hits + cache_misses
    metrics = {
        "choice.calls": (get("choice.choice_dist").calls / tasks, "calls/task"),
        "choice.us_per_call": (per_call("choice.choice_dist", 1e6), "us"),
        "choice.share": (layer_share("choice"), "share"),
        "models.menu_dist.calls": (get("models.menu_dist").calls / tasks, "calls/task"),
        "models.menu_dist.share": (get("models.menu_dist").total / all_task_time, "share"),
        "models.topk_pl.us_per_call": (per_call("models.topk_pl", 1e6), "us"),
        "models.topk_mallows.us_per_call": (per_call("models.topk_mallows", 1e6), "us"),
        "models.insertion_cache.hit_ratio": (cache_hits / lookups if lookups else 0.0, "share"),
        "models.pl_tasks.share": (layer_share("models", ["pl"] if "pl" in task_time else []), "share"),
        "collab.solo.calls": (solo.calls / tasks, "calls/task"),
        "collab.solo.useful_ratio": (len(set(solo.info)) / solo.calls if solo.calls else 0.0, "ratio"),
        "collab.joint.self_s": (
            sum(get(n).self_time for n in ("collab.joint_utility", "collab.joint_pick_dist",
                                           "collab.joint_pick_from_menus")) / tasks, "s/task"),
        "welfare.verify_uplift.calls": (get("welfare.verify_uplift").calls / tasks, "calls/task"),
        "welfare.verify_uplift.s_per_call": (per_call("welfare.verify_uplift"), "s"),
        "optimize.table.calls": (table.calls / tasks, "calls/task"),
        "optimize.table.menus_per_s": (
            sum(n for n, _ in table.info) / table.total if table.total else 0.0, "1/s"),
        "optimize.table.repeat_ratio": (
            table.calls / len({key for _, key in table.info}) if table.calls else 0.0, "ratio"),
        "optimize.bnb.nodes": (
            sum(n for n, _, _ in bnb.info) / bnb.calls if bnb.calls else 0.0, "nodes/call"),
        "optimize.bnb.evaluated_share": (
            sum(e for _, e, _ in bnb.info) / sum(c for _, _, c in bnb.info) if bnb.calls else 0.0, "share"),
        "optimize.bnb.self_s": (bnb.self_time / bnb.calls if bnb.calls else 0.0, "s/call"),
        "optimize.mip.build_s": (per_call("optimize.mip.build"), "s/call"),
        "optimize.mip.variables": (
            sum(v for v, _ in build.info) / build.calls if build.calls else 0.0, "count"),
        "optimize.mip.constraints": (
            sum(c for _, c in build.info) / build.calls if build.calls else 0.0, "count"),
        "optimize.mip.export_s": (per_call("optimize.mip.export"), "s/call"),
        "optimize.mip.solve_s": (per_call("optimize.mip.solve"), "s/call"),
        "optimize.mip.milp_per_solve": (get("scipy.milp").calls / solves if solves else 0.0, "ratio"),
        "optimize.mip.wrong_optima": (float(wrong_optima), "count"),
        "scipy.milp.share": (layer_share("scipy.milp"), "share"),
        "analysis.swap.calls": (get("analysis.swap").calls / tasks, "calls/task"),
        "analysis.swap.s_per_call": (per_call("analysis.swap"), "s"),
        "experiments.self_s": (self_of("experiments.") / tasks, "s/task"),
        "trace.overhead": (overhead, "share"),
    }
    shares = {
        kind: sorted(
            ((lay, t / task_time[kind]) for (k, lay), t in layer_self.items() if k == kind),
            key=lambda item: -item[1],
        )
        for kind in task_time
    }
    shares["all"] = sorted(
        ((lay, layer_share(lay)) for lay in {lay for _, lay in layer_self}), key=lambda item: -item[1]
    )
    return metrics, shares
