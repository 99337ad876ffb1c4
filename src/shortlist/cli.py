"""Command-line interface.

All item labels on the command line are 1-indexed; rankings are given as
space- or comma-separated labels, e.g. ``--center "2 1 3"``.
"""
from __future__ import annotations

import argparse
import sys

from .analysis import (
    check_mallows_harmful,
    check_mallows_helpful,
    check_pl_harmful,
    check_pl_helpful,
    derive_partial_order,
    swap_effect,
)
from .collab import expected_utility, joint_pick_dist, solo_pick_dist
from .errors import DimensionError, DomainError, ShortlistError
from .experiments import EXPERIMENTS, load_profile, run_config, sushi_profile
from .models import MallowsModel, PlackettLuceModel
from .optimize import (
    branch_and_bound_menu,
    build_mip,
    enumerate_best_menu,
    export_lp,
    optimize_with_uplift,
)
from .rankings import (
    NOISELESS,
    AlgorithmPolicy,
    HumanType,
    Population,
    Ranking,
    ValueProfile,
    borda_values,
)
from .welfare import UPLIFT_TOLERANCE, verify_uplift


def _numbers(tokens, kind, flag: str) -> tuple:
    """``tokens`` converted by ``kind`` (int or float); a bad token names ``flag``."""
    out = []
    for token in tokens:
        try:
            out.append(kind(token))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ShortlistError(f"{flag}: {token!r} is not {noun}") from None
    return tuple(out)


def _parse_list(text: str, kind, flag: str) -> tuple:
    """A space- or comma-separated list, as item labels and values are given."""
    return _numbers(text.replace(",", " ").split(), kind, flag)


def _parse_items(text: str, flag: str) -> tuple[int, ...]:
    return tuple(x - 1 for x in _parse_list(text, int, flag))


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    items = _parse_items(text, flag)
    if len(items) != 2:
        raise ShortlistError(f"{flag} needs exactly two items, got {len(items)}")
    return items


def _parse_ranking(text: str, flag: str) -> Ranking:
    return Ranking(_parse_items(text, flag))


def _parse_values(text: str, m: int) -> ValueProfile:
    if text == "borda":
        return borda_values(m)
    if text == "top":
        from .rankings import top_item_values

        return top_item_values(m)
    return ValueProfile(_parse_list(text, float, "--values"))


def _fmt_items(items) -> str:
    return " ".join(str(x + 1) for x in sorted(items))


def _fmt_dist(dist) -> str:
    return ", ".join(
        f"x{item + 1}: {prob:.6g}" for item, prob in sorted(dist.items())
    )


def _human_from_args(args) -> HumanType:
    center = _parse_ranking(args.human_center, "--human-center")
    values = _parse_values(args.values, center.m)
    if values.m != center.m:
        raise DimensionError(f"--values has {values.m} entries for {center.m} items")
    if getattr(args, "beta", None) is not None:
        if args.phi_h is not None:
            raise ShortlistError("--phi-h (Mallows) and --beta (Plackett-Luce) select different human models")
        item_values = tuple(values[center.position(x)] for x in range(center.m))
        noise = PlackettLuceModel(item_values, args.beta)
    else:
        noise = MallowsModel(center, _require(args.phi_h, "--phi-h", args.command))
    return HumanType(center, noise, values, 1.0)


def _policy_from_args(args) -> AlgorithmPolicy:
    center = _parse_ranking(args.alg_center, "--alg-center")
    accuracy = NOISELESS if args.noiseless else _require(args.phi_a, "--phi-a", args.command)
    return AlgorithmPolicy(center, accuracy, args.k)


def _population_from_args(args) -> Population:
    profile = load_profile(args.profile) if args.profile else sushi_profile()
    values = _parse_values(args.values, profile.m) if args.values else None
    return profile.to_population(args.phi_h, values)


def _add_prob_parser(sub):
    p = sub.add_parser("prob", help="single-query probabilities under one model")
    p.add_argument("query", choices=["perm", "first", "pairwise", "topk", "choice"])
    p.add_argument("--center", required=True, help="center ranking, 1-indexed")
    p.add_argument("--phi", type=float, default=None, help="Mallows accuracy")
    p.add_argument("--pl-values", default=None, help="per-item values (selects Plackett-Luce)")
    p.add_argument("--beta", type=float, default=None, help="Plackett-Luce noise scale (default 1)")
    p.add_argument("--ranking", help="query ranking (perm)")
    p.add_argument("--item", type=int, help="query item (first)")
    p.add_argument("--pair", help="two items, better first (pairwise)")
    p.add_argument("--menu", help="item set (topk, choice)")
    p.add_argument("--target", type=int, help="target item (choice)")
    p.set_defaults(func=_cmd_prob)


def _require(value, flag: str, query: str):
    if value is None:
        raise ShortlistError(f"{flag} is required for the {query!r} query")
    return value


def _cmd_prob(args) -> int:
    center = _parse_ranking(args.center, "--center")
    if args.pl_values is not None:
        if args.phi is not None:
            raise ShortlistError("--phi is a Mallows accuracy; --pl-values selects Plackett-Luce")
        values = _parse_list(args.pl_values, float, "--pl-values")
        model = PlackettLuceModel(values, 1.0 if args.beta is None else args.beta)
        if center != model.center:
            raise ShortlistError(
                f"--center must be the value order of --pl-values, {_fmt_ranking(model.center)}"
            )
    else:
        if args.phi is None:
            raise ShortlistError("--phi is required for a Mallows model")
        if args.beta is not None:
            raise ShortlistError("--beta needs --pl-values; a Mallows model takes --phi only")
        model = MallowsModel(center, args.phi)
    if args.query == "perm":
        out = model.perm_prob(_parse_ranking(_require(args.ranking, "--ranking", "perm"), "--ranking"))
    elif args.query == "first":
        out = model.first_item_prob(_require(args.item, "--item", "first") - 1)
    elif args.query == "pairwise":
        i, j = _parse_pair(_require(args.pair, "--pair", "pairwise"), "--pair")
        out = model.pairwise_prob(i, j)
    elif args.query == "topk":
        out = model.topk_set_prob(_parse_items(_require(args.menu, "--menu", "topk"), "--menu"))
    else:
        from .choice import choice_prob

        menu = _parse_items(_require(args.menu, "--menu", "choice"), "--menu")
        out = choice_prob(model, menu, _require(args.target, "--target", "choice") - 1)
    print(repr(out))
    return 0


def _add_collab_parser(sub):
    p = sub.add_parser("collab", help="solo and joint pick distributions and utilities")
    p.add_argument("--human-center", required=True)
    p.add_argument("--phi-h", type=float, default=None)
    p.add_argument("--beta", type=float, default=None, help="Plackett-Luce human instead of Mallows")
    p.add_argument("--values", required=True, help="'borda', 'top', or explicit list")
    p.add_argument("--alg-center", required=True)
    p.add_argument("--phi-a", type=float, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("-k", type=int, required=True, help="menu size")
    p.set_defaults(func=_cmd_collab)


def _cmd_collab(args) -> int:
    human = _human_from_args(args)
    policy = _policy_from_args(args)
    solo = solo_pick_dist(human)
    joint = joint_pick_dist(human, policy)
    solo_u = expected_utility(solo, human)
    joint_u = expected_utility(joint, human)
    print(f"solo pick dist: {_fmt_dist(solo)}")
    print(f"joint pick dist: {_fmt_dist(joint)}")
    print(f"solo utility: {solo_u!r}")
    print(f"joint utility: {joint_u!r}")
    print(f"uplifted: {joint_u > solo_u + UPLIFT_TOLERANCE}")
    return 0


def _add_welfare_parser(sub):
    p = sub.add_parser("welfare", help="population welfare and uplift for one policy")
    p.add_argument("--profile", default=None, help="profile file (default: sushi fixture)")
    p.add_argument("--phi-h", type=float, required=True)
    p.add_argument("--values", default=None, help="'borda', 'top', or explicit list")
    p.add_argument("--alg-center", required=True)
    p.add_argument("--phi-a", type=float, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_welfare)


def _cmd_welfare(args) -> int:
    pop = _population_from_args(args)
    policy = _policy_from_args(args)
    report = verify_uplift(pop, policy)
    print(f"social welfare: {report.social_welfare!r}")
    print(f"uplift all: {report.uplift_all}")
    print(f"uplift fraction (weighted): {report.uplift_fraction!r}")
    print(f"types uplifted: {report.uplifted_count}/{len(report.per_type)}")
    for idx, outcome in enumerate(report.per_type):
        print(
            f"  type {idx}: solo={outcome.solo:.6g} joint={outcome.joint:.6g} "
            f"uplifted={outcome.uplifted}"
        )
    return 0


def _add_optimize_parser(sub):
    p = sub.add_parser("optimize", help="welfare-maximizing menu for a population")
    p.add_argument("--profile", default=None, help="profile file (default: sushi fixture)")
    p.add_argument("--phi-h", type=float, required=True)
    p.add_argument("--values", default=None)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--uplift", action="store_true", help="restrict to menus achieving uplift")
    p.add_argument("--method", choices=["enum", "bnb"], default="enum")
    p.add_argument("--export-lp", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_optimize)


def _cmd_optimize(args) -> int:
    pop = _population_from_args(args)
    if args.export_lp:
        mip = build_mip(pop, args.k)
        export_lp(mip, args.export_lp)
        print(f"wrote LP to {args.export_lp} ({mip.num_variables} variables)")
    if args.uplift:
        result = optimize_with_uplift(pop, args.k)
        if result is None:
            print("infeasible: no menu achieves uplift")
            return 1
    elif args.method == "bnb":
        result = branch_and_bound_menu(pop, args.k)
    else:
        result = enumerate_best_menu(pop, args.k)
    print(f"menu: {_fmt_items(result.menu)}")
    print(f"welfare: {result.welfare!r}")
    print(f"method: {result.method} ({result.evaluations} evaluations)")
    return 0


def _add_analyze_parser(sub):
    p = sub.add_parser("analyze", help="misalignment analysis tools")
    kind = p.add_subparsers(dest="analysis", required=True)

    swap = kind.add_parser("swap", help="effect of swapping two items in the algorithm center")
    swap.add_argument("--human-center", required=True)
    swap.add_argument("--phi-h", type=float, default=None)
    swap.add_argument("--beta", type=float, default=None)
    swap.add_argument("--values", required=True)
    swap.add_argument("--alg-center", required=True)
    swap.add_argument("--phi-a", type=float, default=None)
    swap.add_argument("--noiseless", action="store_true")
    swap.add_argument("-k", type=int, required=True)
    swap.add_argument("--pair", required=True, help="two items, algorithm-better first")
    swap.set_defaults(func=_cmd_analyze_swap)

    cond = kind.add_parser("conditions", help="sufficient-condition checkers")
    cond.add_argument("--family", choices=["mallows", "pl"], required=True)
    cond.add_argument("--kind", choices=["harmful", "helpful"], required=True)
    cond.add_argument("--values", required=True, help="explicit value list by rank")
    cond.add_argument("--phi-h", type=float, default=None)
    cond.add_argument("--beta", type=float, default=None)
    cond.add_argument("--ranks", required=True, help="1-based ranks i j (harmful: i j; pl harmful: j)")
    cond.add_argument("--human-center", default=None, help="helpful checkers: human ranking")
    cond.add_argument("--alg-center", default=None, help="helpful checkers: algorithm center")
    cond.add_argument("--phi-a", type=float, default=None)
    cond.set_defaults(func=_cmd_analyze_conditions)

    order = kind.add_parser("order", help="certified preference order over candidate centers")
    order.add_argument("--human-center", required=True)
    order.add_argument("--phi-h", type=float, default=None)
    order.add_argument("--beta", type=float, default=None)
    order.add_argument("--values", required=True)
    order.add_argument("--phi-a", type=float, required=True)
    order.add_argument("-k", type=int, required=True)
    order.add_argument("--candidates", required=True, help="semicolon-separated rankings")
    order.set_defaults(func=_cmd_analyze_order)


def _cmd_analyze_swap(args) -> int:
    human = _human_from_args(args)
    policy = _policy_from_args(args)
    i, j = _parse_pair(args.pair, "--pair")
    report = swap_effect(human, policy, i, j)
    print(f"swapped pair: x{i + 1}, x{j + 1}")
    print(f"utility delta (swapped - original): {report.utility_delta!r}")
    for item in range(human.m):
        before, after = report.item_probs[item]
        print(f"  x{item + 1}: {before:.6g} -> {after:.6g} (delta {after - before:+.3g})")
    return 0


def _cmd_analyze_conditions(args) -> int:
    ranks = _parse_list(args.ranks, int, "--ranks")
    need = 1 if (args.family, args.kind) == ("pl", "harmful") else 2
    if len(ranks) != need:
        raise ShortlistError(f"--ranks needs {need} rank(s) for {args.family} {args.kind}, got {len(ranks)}")
    flag, other = ("--beta", args.beta) if args.family == "mallows" else ("--phi-h", args.phi_h)
    if other is not None:
        raise ShortlistError(f"{flag} does not apply to --family {args.family}")
    if args.family == "mallows" and args.kind == "harmful":
        values = _parse_values(args.values, len(args.values.split()))
        phi_h = _require(args.phi_h, "--phi-h", "mallows harmful")
        verdict = check_mallows_harmful(values, phi_h, ranks[0], ranks[1])
    elif args.family == "pl" and args.kind == "harmful":
        values = _parse_values(args.values, len(args.values.split()))
        beta = _require(args.beta, "--beta", "pl harmful")
        verdict = check_pl_harmful(values, beta, ranks[0])
    else:
        _require(args.human_center, "--human-center", "helpful")
        alg_center = _require(args.alg_center, "--alg-center", "helpful")
        phi_a = _require(args.phi_a, "--phi-a", "helpful")
        human = _human_from_args(args)
        policy = AlgorithmPolicy(_parse_ranking(alg_center, "--alg-center"), phi_a, 2)
        if not all(1 <= r <= human.m for r in ranks):
            raise DomainError(f"--ranks must lie in 1..{human.m}, got {ranks}")
        item_i = human.ground_truth.order[ranks[0] - 1]
        item_j = human.ground_truth.order[ranks[1] - 1]
        if args.family == "mallows":
            verdict = check_mallows_helpful(human, policy, item_i, item_j)
        else:
            verdict = check_pl_helpful(human, policy, item_i, item_j)
    print(f"holds: {verdict.holds}")
    print(f"applicable: {verdict.applicable}")
    if verdict.lhs is not None:
        print(f"lhs: {verdict.lhs!r}")
        print(f"rhs: {verdict.rhs!r}")
    if verdict.witness is not None:
        print(f"witness rank: {verdict.witness}")
    if verdict.note:
        print(f"note: {verdict.note}")
    return 0


def _cmd_analyze_order(args) -> int:
    human = _human_from_args(args)
    candidates = [
        _parse_ranking(chunk, "--candidates") for chunk in args.candidates.split(";") if chunk.strip()
    ]
    result = derive_partial_order(human, candidates, args.phi_a, args.k)
    for idx, (cand, util) in enumerate(zip(candidates, result.utilities)):
        print(f"candidate {idx}: ({_fmt_ranking(cand)}) utility {util!r}")
    if not result.edges:
        print("no certified edges")
    for edge in result.edges:
        print(f"candidate {edge.better} > candidate {edge.worse}  [{edge.provenance}]")
    return 0


def _fmt_ranking(r: Ranking) -> str:
    return " ".join(str(x + 1) for x in r.order)


def _add_experiment_parser(sub):
    p = sub.add_parser("experiment", help="run a shipped experiment, write CSV")
    p.add_argument("name", nargs="?", choices=list(EXPERIMENTS), help="experiment name (or use --config)")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--output", default=None, help="CSV destination")
    p.add_argument("--profile", default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--phi-grid", default=None, help="comma-separated accuracies")
    p.add_argument("--beta-grid", default=None, help="comma-separated value decays")
    p.add_argument("--sizes", default=None, help="comma-separated m values (bench)")
    p.add_argument("--solver", choices=["bnb", "mip"], default=None)
    p.set_defaults(func=_cmd_experiment)


# experiment flags by config key (the argparse dest), with the element type of a grid
_EXPERIMENT_FLAGS = {
    "profile": ("--profile", None),
    "k": ("-k", None),
    "gamma": ("--gamma", None),
    "phi_grid": ("--phi-grid", float),
    "beta_grid": ("--beta-grid", float),
    "sizes": ("--sizes", int),
    "solver": ("--solver", None),
}


def _cmd_experiment(args) -> int:
    """Run the named experiment, or ``--config``, through ``run_config``."""
    given = {key: getattr(args, key) for key in _EXPERIMENT_FLAGS if getattr(args, key) is not None}
    if args.config:
        if args.name or args.output or given:
            raise ShortlistError("--config takes no experiment name, --output or experiment flags")
        config = args.config
    else:
        if not args.name:
            raise ShortlistError("give an experiment name or --config")
        if not args.output:
            raise ShortlistError("--output is required")
        config = {"experiment": args.name, "output": args.output}
        for key, value in given.items():
            flag, kind = _EXPERIMENT_FLAGS[key]
            if key not in EXPERIMENTS[args.name]:
                raise ShortlistError(f"{flag} does not apply to the {args.name!r} experiment")
            config[key] = value if kind is None else _numbers(value.split(","), kind, flag)
    for path in run_config(config):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortlist",
        description="Exact curation outcomes under noisy ranking models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_prob_parser(sub)
    _add_collab_parser(sub)
    _add_welfare_parser(sub)
    _add_optimize_parser(sub)
    _add_analyze_parser(sub)
    _add_experiment_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShortlistError, OSError) as exc:
        # OSError: an input file that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
