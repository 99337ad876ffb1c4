import argparse
import itertools
import math

import pytest

from shortlist import HumanType, MallowsModel, Population, Ranking, cli, top_item_values


def make_ranking(*items) -> Ranking:
    return Ranking(tuple(items))


def declared_flags() -> dict[str, set[str]]:
    """Each command line the CLI parser runs ("analyze swap") and the flags its last word declares, -h aside.

    That is each leaf subcommand, and each subcommand whose own subcommand may be left out (``experiment --config``).
    """
    leaves = {}

    def walk(parser, words):
        subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not any(a.required for a in subcommands):
            leaves[" ".join(words)] = {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}
        for action in subcommands:
            for name, child in action.choices.items():
                walk(child, [*words, name])

    walk(cli.build_parser(), [])
    return leaves


def discordant_pairs(a: Ranking, b: Ranking) -> int:
    """O(m^2) pair-counting reference for the Kendall-Tau distance."""
    count = 0
    for x in range(a.m):
        for y in range(x + 1, a.m):
            if (a.position(x) < a.position(y)) != (b.position(x) < b.position(y)):
                count += 1
    return count


def mallows_support_oracle(center: Ranking, phi: float):
    """Independent enumeration of a Mallows distribution.

    Uses pair counting for the distance and normalizes by the summed weights,
    so it shares no code path with the closed-form normalizers under test.
    """
    perms = [Ranking(p) for p in itertools.permutations(range(center.m))]
    weights = [math.exp(-phi * discordant_pairs(center, r)) for r in perms]
    total = math.fsum(weights)
    return [(r, w / total) for r, w in zip(perms, weights)]


def first_in_menu(ranking: Ranking, menu) -> int:
    return min(menu, key=ranking.position)


def three_type_top_recovery(m: int, phi_h: float) -> Population:
    """Three top-misaligned types whose favorites are items 0, 1, 2."""
    rest = tuple(range(3, m))
    gts = (
        Ranking((0, 1, 2) + rest),
        Ranking((1, 2) + rest + (0,)),
        Ranking((2, 0, 1) + rest),
    )
    return Population(
        tuple(
            HumanType(gt, MallowsModel(gt, phi_h), top_item_values(m), 1 / 3)
            for gt in gts
        )
    )


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(20240801)
