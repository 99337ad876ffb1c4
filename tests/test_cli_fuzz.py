"""Fuzzed command lines: every run exits 0, 1 or 2 and none prints a traceback.

Arguments are drawn per subcommand from its flags, each with a mix of valid
and invalid tokens over small universes (m <= 5), so runs get past argparse
and into the library as often as they stop at a bad token.
"""
import contextlib
import importlib.resources
import io
import json
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortlist import cli

RANKINGS = ["1 2 3", "2 1 3", "3,1,2", "1 2 3 4", "2 4 5 1 3", "1 x 3", "", "0 1 2", "1 1 2", "1 2 9"]
PAIRS = ["1 2", "2 3", "3 1", "1", "1 2 3", "1 x", "0 1"]
NUMBERS = ["0", "0.5", "1.0", "2", "-1", "700", "nan", "inf", "x", ""]
INTS = ["0", "1", "2", "3", "5", "9", "-1", "x", "2.5"]
VALUES = ["borda", "top", "3 2 1", "2,1,0", "1 0.5 0 0 0", "1 2 3", "1 x 0", "1 nan 0", "-1 -2 -3", ""]
GRIDS = ["0.5", "0,1.5", "0.5,,1", "x", "nan", "", "-1", "0.25,3"]
# a path token is replaced by a real path in a per-module directory
PATHS = ["@ok.csv", "@missing/out.csv", "@dir", "@nope.txt", "@garbage.txt", "@profile.txt", "@config.json", "@bad.json"]
FLAG = object()  # a store_true flag takes no token

HUMAN = {"--human-center": RANKINGS, "--phi-h": NUMBERS, "--beta": NUMBERS, "--values": VALUES}
POLICY = {"--alg-center": RANKINGS, "--phi-a": NUMBERS, "--noiseless": [FLAG], "-k": INTS}
COMMANDS = {
    "prob": {
        None: ["perm", "first", "pairwise", "topk", "choice", "bogus"],
        "--center": RANKINGS, "--phi": NUMBERS, "--pl-values": VALUES, "--beta": NUMBERS,
        "--ranking": RANKINGS, "--item": INTS, "--pair": PAIRS, "--menu": RANKINGS, "--target": INTS,
    },
    "collab": {**HUMAN, **POLICY},
    "welfare": {"--profile": PATHS, "--phi-h": NUMBERS, "--values": VALUES, **POLICY},
    "optimize": {
        "--profile": PATHS, "--phi-h": NUMBERS, "--values": VALUES, "-k": INTS,
        "--uplift": [FLAG], "--method": ["enum", "bnb", "x"], "--export-lp": PATHS,
    },
    "analyze swap": {**HUMAN, **POLICY, "--pair": PAIRS},
    "analyze conditions": {
        "--family": ["mallows", "pl", "x"], "--kind": ["harmful", "helpful"], "--values": VALUES,
        "--phi-h": NUMBERS, "--beta": NUMBERS, "--ranks": PAIRS, "--human-center": RANKINGS,
        "--alg-center": RANKINGS, "--phi-a": NUMBERS,
    },
    "analyze order": {**HUMAN, "--phi-a": NUMBERS, "-k": INTS, "--candidates": ["1 2 3; 2 1 3", "1 2 3;", "1 x 3; 3 2 1", ""]},
    "experiment": {
        None: ["sushi", "tension", "beta-sweep", "bench", "bogus"],
        "--config": PATHS, "--output": PATHS, "--profile": PATHS, "-k": INTS, "--gamma": NUMBERS,
        "--phi-grid": GRIDS, "--beta-grid": GRIDS, "--solver": ["bnb", "mip"],
    },
}
# the bench experiment's default sizes take seconds; the fuzz keeps m small
BENCH_SIZES = ["4", "4,5", "3", "x", "", "4,,5"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    (root / "dir").mkdir()
    (root / "garbage.txt").write_text("3 1 2\nnot a profile\n")
    fixture = importlib.resources.files("shortlist").joinpath("data/sushi_top33.txt")
    (root / "profile.txt").write_text(fixture.read_text(encoding="utf-8"))
    config = {"experiment": "tension", "output": str(root / "config.csv"), "phi_grid": [0.5]}
    (root / "config.json").write_text(json.dumps(config))
    (root / "bad.json").write_text("{not json")
    return root


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split()
    for flag, tokens in COMMANDS[command].items():
        if draw(st.integers(0, 3)) == 0:  # each flag is left out a quarter of the time
            continue
        token = draw(st.sampled_from(tokens))
        argv += [token] if flag is None else [flag] if token is FLAG else [flag, token]
    if argv[:2] == ["experiment", "bench"]:
        argv += ["--sizes", draw(st.sampled_from(BENCH_SIZES))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception:
            pytest.fail(f"{argv} raised\n{traceback.format_exc()}")
    return code, err.getvalue()


@given(argv=argvs())
@settings(max_examples=150, deadline=None)
def test_fuzzed_command_lines_exit_cleanly(paths, argv):
    argv = [str(paths / t[1:]) if t.startswith("@") else t for t in argv]
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
