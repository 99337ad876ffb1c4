"""Command-line interface.

All item labels on the command line are 1-indexed; rankings are given as
space- or comma-separated labels, e.g. ``--center "2 1 3"``.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .analysis import (
    check_mallows_harmful,
    check_mallows_helpful,
    check_pl_harmful,
    check_pl_helpful,
    derive_partial_order,
    swap_effect,
)
from .choice import choice_dist
from .collab import expected_utility, joint_pick_dist, joint_utility
from .errors import CapacityError, DimensionError, DomainError, ShortlistError
from .experiments import EXPERIMENTS, load_profile, run_config, sushi_profile
from .models import MallowsModel, PlackettLuceModel, _memo, policy_ranking_model
from .optimize import (
    branch_and_bound_menu,
    build_mip,
    enumerate_best_menu,
    export_lp,
    optimize_with_uplift,
)
from .rankings import (
    AlgorithmPolicy,
    HumanType,
    Population,
    Ranking,
    ValueProfile,
    borda_values,
    top_item_values,
)
from .welfare import uplifted, verify_uplift


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


def _item(label: int, m: int, flag: str) -> int:
    """The 0-based item of a 1-indexed ``label``; a label outside ``1..m`` names ``flag``."""
    if not 1 <= label <= m:
        raise DomainError(f"{flag}: item {label} outside 1..{m}")
    return label - 1


def _parse_items(text: str, flag: str, m: int | None = None) -> tuple[int, ...]:
    """Distinct 1-indexed labels in ``1..m`` (default: how many are given) as 0-based items."""
    labels = _parse_list(text, int, flag)
    if len(set(labels)) != len(labels):
        raise ShortlistError(f"{flag}: repeated item label in {text!r}")
    return tuple(_item(x, len(labels) if m is None else m, flag) for x in labels)


def _parse_pair(text: str, flag: str, m: int) -> tuple[int, int]:
    items = _parse_items(text, flag, m)
    if len(items) != 2:
        raise ShortlistError(f"{flag} needs exactly two items, got {len(items)}")
    return items


def _parse_ranking(text: str, flag: str) -> Ranking:
    return Ranking(_parse_items(text, flag))


def _parse_values(text: str, m: int) -> ValueProfile:
    if text == "borda":
        return borda_values(m)
    if text == "top":
        return top_item_values(m)
    return ValueProfile(_parse_list(text, float, "--values"))


def _fmt_items(items) -> str:
    return " ".join(str(x + 1) for x in sorted(items))


def _fmt_dist(dist) -> str:
    return ", ".join(
        f"x{item + 1}: {prob:.6g}" for item, prob in sorted(dist.items())
    )


# Each flag group is a parent parser: the commands that build a human type, a
# policy or a population take its flags, and one function below reads them.
_FAMILY_FLAGS = argparse.ArgumentParser(add_help=False)
_FAMILY_FLAGS.add_argument("--phi-h", type=float, default=None, help="Mallows human accuracy")
_FAMILY_FLAGS.add_argument("--beta", type=float, default=None, help="Plackett-Luce human instead of Mallows")
_HUMAN_FLAGS = argparse.ArgumentParser(add_help=False, parents=[_FAMILY_FLAGS])
_HUMAN_FLAGS.add_argument("--human-center", required=True, help="human ground-truth ranking")
_HUMAN_FLAGS.add_argument("--values", required=True, help="'borda', 'top', or explicit list by rank")


def _family(args) -> str:
    """The human model family: "pl" with --beta, "mallows" with --phi-h; exactly one is given."""
    if args.beta is not None and args.phi_h is not None:
        raise ShortlistError("--phi-h (Mallows) and --beta (Plackett-Luce) select different human models")
    if args.beta is None:
        _require(args.phi_h, "--phi-h or --beta", args)
    return "mallows" if args.beta is None else "pl"


def _human_from_args(args) -> HumanType:
    center = _parse_ranking(args.human_center, "--human-center")
    values = _parse_values(args.values, center.m)
    if values.m != center.m:
        raise DimensionError(f"--values has {values.m} entries for {center.m} items")
    if _family(args) == "pl":
        item_values = tuple(values[center.position(x)] for x in range(center.m))
        noise = PlackettLuceModel(item_values, args.beta)
    else:
        noise = MallowsModel(center, args.phi_h)
    return HumanType(center, noise, values, 1.0)


_CURATOR_FLAGS = argparse.ArgumentParser(add_help=False)
_CURATOR_FLAGS.add_argument("--alg-center", required=True, help="algorithm center ranking")
_CURATOR_FLAGS.add_argument("--phi-a", type=float, required=True, help="Mallows accuracy (inf: the center's top k)")
_POLICY_FLAGS = argparse.ArgumentParser(add_help=False, parents=[_CURATOR_FLAGS])
_POLICY_FLAGS.add_argument("-k", type=int, required=True, help="menu size")


def _policy_from_args(args) -> AlgorithmPolicy:
    return AlgorithmPolicy(_parse_ranking(args.alg_center, "--alg-center"), args.phi_a, args.k)


def _check_ahead(policy: AlgorithmPolicy, i: int, j: int, flag: str) -> None:
    """Refuse items ``i``, ``j`` (given by ``flag``) unless ``i`` is ahead of ``j`` in --alg-center."""
    if policy.center.position(i) > policy.center.position(j):
        raise DomainError(f"{flag}: item {i + 1} must be ahead of item {j + 1} in --alg-center")


_POPULATION_FLAGS = argparse.ArgumentParser(add_help=False)
_POPULATION_FLAGS.add_argument("--profile", default=None, help="profile file (default: sushi fixture)")
_POPULATION_FLAGS.add_argument("--phi-h", type=float, required=True, help="Mallows accuracy of every type")
_POPULATION_FLAGS.add_argument("--values", default=None, help="'borda' (default), 'top', or explicit list")


def _population_from_args(args) -> Population:
    profile = load_profile(args.profile) if args.profile else sushi_profile()
    values = _parse_values(args.values, profile.m) if args.values else None
    return profile.to_population(args.phi_h, values)


_MODEL_FLAGS = argparse.ArgumentParser(add_help=False)
_MODEL_FLAGS.add_argument("--center", default=None, help="Mallows center ranking, 1-indexed")
_MODEL_FLAGS.add_argument("--phi", type=float, default=None, help="Mallows accuracy")
_MODEL_FLAGS.add_argument("--pl-values", default=None, help="per-item values (Plackett-Luce, centered on their order)")
_MODEL_FLAGS.add_argument("--beta", type=float, default=None, help="Plackett-Luce noise scale (default 1)")


def _add_prob_parser(sub):
    p = sub.add_parser("prob", help="single-query probabilities under one model")
    query = functools.partial(p.add_subparsers(dest="query", required=True).add_parser, parents=[_MODEL_FLAGS])
    query("perm", help="P[ranking]").add_argument("--ranking", required=True, help="query ranking")
    query("pairwise", help="P[first item ranked before second]").add_argument("--pair", required=True, help="two items")
    query("topk", help="P[the menu is the top |menu| items]").add_argument("--menu", required=True, help="item set")
    choice = query("choice", help="P[target is picked from the menu]")
    choice.add_argument("--menu", required=True, help="item set")
    choice.add_argument("--target", type=int, required=True, help="target item, one of --menu")
    p.set_defaults(func=_cmd_prob)


def _require(value, flag: str, args):
    """``value``, or an error naming ``flag`` and the command that needs it."""
    if value is None:
        words = [args.command, getattr(args, "query", None), getattr(args, "analysis", None)]
        raise ShortlistError(f"{flag} is required for '{' '.join(filter(None, words))}'")
    return value


def _cmd_prob(args) -> int:
    if args.pl_values is not None:
        if args.phi is not None:
            raise ShortlistError("--phi is a Mallows accuracy; --pl-values selects Plackett-Luce")
        if args.center is not None:
            raise ShortlistError("--center is a Mallows center; --pl-values is centered on the value order")
        values = _parse_list(args.pl_values, float, "--pl-values")
        model = PlackettLuceModel(values, 1.0 if args.beta is None else args.beta)
    else:
        center = _parse_ranking(_require(args.center, "--center", args), "--center")
        if args.beta is not None:
            raise ShortlistError("--beta needs --pl-values; a Mallows model takes --phi only")
        model = MallowsModel(center, _require(args.phi, "--phi", args))
    if args.query == "perm":
        out = model.perm_prob(_parse_ranking(args.ranking, "--ranking"))
    elif args.query == "pairwise":
        out = model.pairwise_prob(*_parse_pair(args.pair, "--pair", model.m))
    else:
        menu = _parse_items(args.menu, "--menu", model.m)
        if args.query == "topk":
            out = model.topk_set_prob(menu)
        else:
            target = _item(args.target, model.m, "--target")
            if target not in menu:
                raise DomainError(f"--target: item {target + 1} is not in --menu {_fmt_items(menu)}")
            out = choice_dist(model, menu)[target]
    print(repr(out))
    return 0


def _add_collab_parser(sub):
    p = sub.add_parser("collab", help="solo and joint pick distributions and utilities",
                       parents=[_HUMAN_FLAGS, _POLICY_FLAGS])
    p.set_defaults(func=_cmd_collab)


def _cmd_collab(args) -> int:
    human = _human_from_args(args)
    policy = _policy_from_args(args)
    solo = choice_dist(human.noise, range(human.m))
    joint = joint_pick_dist(human, policy)
    solo_u = expected_utility(solo, human)
    joint_u = joint_utility(human, policy)
    print(f"solo pick dist: {_fmt_dist(solo)}")
    print(f"joint pick dist: {_fmt_dist(joint)}")
    print(f"solo utility: {solo_u!r}")
    print(f"joint utility: {joint_u!r}")
    print(f"uplifted: {uplifted(joint_u, solo_u)}")
    return 0


def _add_welfare_parser(sub):
    p = sub.add_parser("welfare", help="population welfare and uplift for one policy",
                       parents=[_POPULATION_FLAGS, _POLICY_FLAGS])
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
    p = sub.add_parser("optimize", parents=[_POPULATION_FLAGS], help="welfare-maximizing menu for a population")
    p.add_argument("-k", type=int, required=True, help="menu size")
    p.add_argument("--uplift", action="store_true", help="restrict to menus achieving uplift")
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
    else:
        try:
            result = enumerate_best_menu(pop, args.k)
        except CapacityError:
            # too many menus to tabulate: branch and bound builds no table
            result = branch_and_bound_menu(pop, args.k)
    print(f"menu: {_fmt_items(result.menu)}")
    print(f"welfare: {result.welfare!r}")
    searched = "" if result.nodes is None else f", {result.nodes} nodes"
    print(f"method: {result.method} ({result.evaluations} evaluations{searched})")
    return 0


def _add_analyze_parser(sub):
    p = sub.add_parser("analyze", help="misalignment analysis tools")
    kind = p.add_subparsers(dest="analysis", required=True)

    swap = kind.add_parser("swap", help="effect of swapping two items in the algorithm center",
                           parents=[_HUMAN_FLAGS, _POLICY_FLAGS])
    swap.add_argument("--pair", required=True, help="two items, algorithm-better first")
    swap.set_defaults(func=_cmd_analyze_swap)

    harmful = kind.add_parser("harmful", parents=[_FAMILY_FLAGS], help="sufficient condition for a harmful swap")
    harmful.add_argument("--values", required=True, help="explicit value list by rank")
    harmful.add_argument("--ranks", required=True, help="1-based ranks i j (Plackett-Luce: j)")
    harmful.set_defaults(func=_cmd_analyze_harmful)

    helpful = kind.add_parser("helpful", parents=[_HUMAN_FLAGS, _CURATOR_FLAGS],
                              help="sufficient condition for a helpful swap, at menu size 2")
    helpful.add_argument("--ranks", required=True, help="1-based ranks i j")
    helpful.set_defaults(func=_cmd_analyze_helpful)

    order = kind.add_parser("order", parents=[_HUMAN_FLAGS], help="certified preference order over candidate centers")
    order.add_argument("--phi-a", type=float, required=True)
    order.add_argument("-k", type=int, required=True)
    order.add_argument("--candidates", required=True, help="semicolon-separated rankings")
    order.set_defaults(func=_cmd_analyze_order)


def _cmd_analyze_swap(args) -> int:
    human = _human_from_args(args)
    policy = _policy_from_args(args)
    i, j = _parse_pair(args.pair, "--pair", policy.center.m)
    _check_ahead(policy, i, j, "--pair")
    report = swap_effect(human, policy, i, j)
    print(f"swapped pair: x{i + 1}, x{j + 1}")
    print(f"utility delta (swapped - original): {report.utility_delta!r}")
    for item in range(human.m):
        before, after = report.item_probs[item]
        print(f"  x{item + 1}: {before:.6g} -> {after:.6g} (delta {after - before:+.3g})")
    return 0


def _ranks(args, family: str, need: int) -> tuple[int, ...]:
    ranks = _parse_list(args.ranks, int, "--ranks")
    if len(ranks) != need:
        raise ShortlistError(f"--ranks needs {need} rank(s) for {family} {args.analysis}, got {len(ranks)}")
    return ranks


def _cmd_analyze_harmful(args) -> int:
    family = _family(args)
    ranks = _ranks(args, family, 2 if family == "mallows" else 1)
    values = ValueProfile(_parse_list(args.values, float, "--values"))
    if family == "mallows":
        return _print_verdict(check_mallows_harmful(values, args.phi_h, *ranks))
    return _print_verdict(check_pl_harmful(values, args.beta, *ranks))


def _cmd_analyze_helpful(args) -> int:
    family = _family(args)
    ranks = _ranks(args, family, 2)
    human = _human_from_args(args)
    policy = AlgorithmPolicy(_parse_ranking(args.alg_center, "--alg-center"), args.phi_a, 2)
    if policy.m != human.m:
        raise DimensionError(f"--alg-center has {policy.m} items, --human-center has {human.m}")
    if not 1 <= ranks[0] < ranks[1] <= human.m:
        raise DomainError(f"--ranks needs 1 <= i < j <= {human.m}, got {ranks}")
    item_i, item_j = (human.ground_truth.order[rank - 1] for rank in ranks)
    _check_ahead(policy, item_i, item_j, "--ranks")
    check = check_mallows_helpful if family == "mallows" else check_pl_helpful
    return _print_verdict(check(human, policy_ranking_model(policy), item_i, item_j))


def _print_verdict(verdict) -> int:
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
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=_cmd_experiment)
    names = p.add_subparsers(dest="name", help="experiment name (or use --config)")
    for name, (_, knobs) in EXPERIMENTS.items():
        run = names.add_parser(name)
        run.add_argument("--output", required=True, help="CSV destination")
        for key, (flag, _, options) in _EXPERIMENT_FLAGS.items():
            if key in knobs:
                run.add_argument(flag, default=None, **options)


# experiment flags by config key (the argparse dest): the flag, the element
# type of a grid, and the flag's argparse options
_EXPERIMENT_FLAGS = {
    "profile": ("--profile", None, {}),
    "k": ("-k", None, {"type": int}),
    "gamma": ("--gamma", None, {"type": float}),
    "phi_grid": ("--phi-grid", float, {"help": "comma-separated accuracies"}),
    "beta_grid": ("--beta-grid", float, {"help": "comma-separated value decays"}),
    "sizes": ("--sizes", int, {"help": "comma-separated m values"}),
    "solver": ("--solver", None, {"choices": ["bnb", "mip"]}),
}


def _cmd_experiment(args) -> int:
    """Run the named experiment, or ``--config``, through ``run_config``."""
    if (args.name is None) == (args.config is None):
        raise ShortlistError("give either an experiment name or --config")
    config = args.config
    if args.name:
        config = {"experiment": args.name, "output": args.output}
        for key, (flag, kind, _) in _EXPERIMENT_FLAGS.items():
            value = getattr(args, key, None)
            if value is not None:
                config[key] = value if kind is None else _numbers(value.split(","), kind, flag)
    for path in run_config(config):
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, as are its subparsers, that reads a flag by its full name only and refuses by ``ShortlistError``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ShortlistError(message)


@_memo()
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ShortlistError, OSError) as exc:
        # OSError: an input file that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
