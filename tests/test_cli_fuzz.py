"""Fuzzed command lines: every run exits 0, 1 or 2 and none prints a traceback.

A run that exits 2 prints exactly one line, which starts with ``error:``.

Arguments are drawn per subcommand from its flags, each with a mix of valid
and invalid tokens over small universes (m <= 5), so runs get past argparse
and into the library as often as they stop at a bad token. Four narrower
fuzzes draw profile counts, harmful-condition accuracies, Plackett-Luce
values and scales, and configs whose knobs hold huge integers or bools: a
count or accuracy outside its domain must exit 2, a scale that overflows the
values must not be answered with NaN, and no knob takes a huge integer or a
bool, so such a config exits 2.
"""
import contextlib
import importlib.resources
import io
import json
import math
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import declared_flags
from shortlist import cli
from shortlist.experiments import EXPERIMENTS

RANKINGS = ["1 2 3", "2 1 3", "3,1,2", "1 2 3 4", "2 4 5 1 3", "1 x 3", "", "0 1 2", "1 1 2", "1 2 9"]
PAIRS = ["1 2", "2 3", "3 1", "1", "1 2 3", "1 x", "0 1"]
NUMBERS = ["0", "0.5", "1.0", "2", "-1", "700", "5e-324", "nan", "inf", "x", ""]
INTS = ["0", "1", "2", "3", "5", "9", "-1", "x", "2.5"]
VALUES = ["borda", "top", "3 2 1", "2,1,0", "1 0.5 0 0 0", "1 2 3", "1e308 0 0", "1 x 0", "1 nan 0", "-1 -2 -3", ""]
GRIDS = ["0.5", "0,1.5", "0.5,,1", "x", "nan", "", "-1", "0.25,3"]
# a path token is replaced by a real path in a per-module directory
PATHS = ["@ok.csv", "@missing/out.csv", "@dir", "@nope.txt", "@garbage.txt", "@profile.txt", "@config.json", "@bad.json"]
FLAG = object()  # a store_true flag takes no token

HUMAN = {"--human-center": RANKINGS, "--phi-h": NUMBERS, "--beta": NUMBERS, "--values": VALUES}
POLICY = {"--alg-center": RANKINGS, "--phi-a": NUMBERS, "-k": INTS}
POPULATION = {"--profile": PATHS, "--phi-h": NUMBERS, "--values": VALUES}
MODEL = {"--center": RANKINGS, "--phi": NUMBERS, "--pl-values": VALUES, "--beta": NUMBERS}
# the bench experiment's default sizes take seconds; the fuzz keeps m small
BENCH_SIZES = ["4", "4,5", "3", "x", "", "4,,5"]
# each command line the parser runs and its flags; a positional (None) comes last,
# and its token may carry flags of its own
COMMANDS = {
    "prob perm": {**MODEL, "--ranking": RANKINGS},
    "prob pairwise": {**MODEL, "--pair": PAIRS},
    "prob topk": {**MODEL, "--menu": RANKINGS},
    "prob choice": {**MODEL, "--menu": RANKINGS, "--target": INTS},
    "collab": {**HUMAN, **POLICY},
    "welfare": {**POPULATION, **POLICY},
    "optimize": {**POPULATION, "-k": INTS, "--uplift": [FLAG], "--export-lp": PATHS},
    "analyze swap": {**HUMAN, **POLICY, "--pair": PAIRS},
    "analyze harmful": {"--values": VALUES, "--phi-h": NUMBERS, "--beta": NUMBERS, "--ranks": PAIRS},
    "analyze helpful": {**HUMAN, "--alg-center": RANKINGS, "--phi-a": NUMBERS, "--ranks": PAIRS},
    "analyze order": {**HUMAN, "--phi-a": NUMBERS, "-k": INTS, "--candidates": ["1 2 3; 2 1 3", "1 2 3;", "1 x 3; 3 2 1", "", ";"]},
    "experiment": {"--config": PATHS, None: ["sushi", "sushi --output @ok.csv", "bogus"]},
    "experiment sushi": {"--output": PATHS, "--profile": PATHS, "-k": INTS, "--phi-grid": GRIDS},
    "experiment tension": {"--output": PATHS, "-k": INTS, "--gamma": NUMBERS, "--phi-grid": GRIDS},
    "experiment beta-sweep": {"--output": PATHS, "-k": INTS, "--beta-grid": GRIDS},
    "experiment bench": {"--output": PATHS, "--sizes": BENCH_SIZES, "--solver": ["bnb", "mip"]},
}


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
        # each flag is left out a quarter of the time, but --sizes always keeps the bench small
        if flag != "--sizes" and draw(st.integers(0, 3)) == 0:
            continue
        token = draw(st.sampled_from(tokens))
        argv += token.split() if flag is None else [flag] if token is FLAG else [flag, token]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            pytest.fail(f"{argv} raised\n{traceback.format_exc()}")
    out, err = out.getvalue(), err.getvalue()
    # every refusal, argparse's included, is one error: line
    assert code != 2 or (len(err.splitlines()) == 1 and err.startswith("error:")), (argv, err)
    return code, out, err


@given(argv=argvs())
@settings(max_examples=150, deadline=None)
def test_fuzzed_command_lines_exit_cleanly(paths, argv):
    argv = [str(paths / t[1:]) if t.startswith("@") else t for t in argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    assert code != 0 or "nan" not in out, (argv, out)  # invalid input is refused, not answered with NaN


PROFILE_COMMANDS = [
    ["experiment", "sushi", "-k", "1", "--phi-grid", "0.5", "--output", "@fuzzed.csv"],
    ["optimize", "--phi-h", "1", "-k", "2"],
    ["welfare", "--phi-h", "1", "--alg-center", "1 2 3", "--phi-a", "1", "-k", "2"],
]


@given(
    command=st.sampled_from(PROFILE_COMMANDS),
    counts=st.lists(
        st.sampled_from(["1", "2.5", "1e-300", "0", "-1", "nan", "inf", "1e308", "x"]), min_size=1, max_size=3
    ),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_profile_counts_are_refused_unless_finite(paths, command, counts):
    orders = ["1 2 3", "2 1 3", "3 2 1"]
    (paths / "fuzzed.txt").write_text("".join(f"{c} {r}\n" for c, r in zip(counts, orders)))
    argv = [str(paths / t[1:]) if t.startswith("@") else t for t in command] + ["--profile", str(paths / "fuzzed.txt")]
    code, out, err = run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, counts, code, err)
    if not all(math.isfinite(float(c)) for c in counts if c != "x") or counts.count("1e308") > 1:
        assert code == 2, (counts, out)


@given(
    flag=st.sampled_from(["--phi-h", "--beta"]),
    accuracy=st.sampled_from(["0", "0.5", "2", "700", "-1", "-0.25", "nan", "inf"]),
    values=st.sampled_from(VALUES),
    ranks=st.sampled_from(PAIRS),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_harmful_conditions_refuse_invalid_accuracies(flag, accuracy, values, ranks):
    argv = ["analyze", "harmful", flag, accuracy, "--values", values, "--ranks", ranks]
    code, out, err = run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    x = float(accuracy)
    if not (0 <= x < math.inf if flag == "--phi-h" else 0 < x < math.inf):
        assert code == 2, (argv, out)


PL_COMMANDS = [
    ["prob", "topk", "--menu", "2", "--pl-values"],
    ["prob", "choice", "--menu", "1 2", "--target", "2", "--pl-values"],
    ["collab", "--human-center", "1 2 3", "--alg-center", "2 1 3", "--phi-a", "1", "-k", "2", "--values"],
    ["analyze", "swap", "--human-center", "1 2 3", "--alg-center", "1 2 3", "--phi-a", "1", "-k", "2",
     "--pair", "1 2", "--values"],
]


@given(command=st.sampled_from(PL_COMMANDS), values=st.sampled_from(VALUES), beta=st.sampled_from(NUMBERS))
@settings(max_examples=60, deadline=None)
def test_fuzzed_plackett_luce_scales_never_answer_nan(command, values, beta):
    argv = [*command, values, "--beta", beta]
    code, out, err = run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    assert code != 0 or "nan" not in out, (argv, out)


# a value no config knob takes: an integer past float range, or a bool, alone or in a list
BAD_KNOB_VALUES = [10**400, -(10**400), True, False, [10**400], [True], [0.5, 10**400], [4, False]]


@pytest.mark.parametrize("name, key", [(name, key) for name in EXPERIMENTS for key in EXPERIMENTS[name][1]])
@given(value=st.sampled_from(BAD_KNOB_VALUES), others=st.lists(st.sampled_from(BAD_KNOB_VALUES), max_size=3))
@settings(max_examples=20, deadline=None)
def test_fuzzed_configs_with_huge_integers_and_bools_exit_2(paths, name, key, value, others):
    # the knob under test holds a bad value; so may up to three other knobs
    config = {"experiment": name, "output": str(paths / "huge.csv"), key: value}
    config.update({k: v for k, v in zip(sorted(set(EXPERIMENTS[name][1]) - {key}), others)})
    (paths / "huge.json").write_text(json.dumps(config))
    code, out, err = run(["experiment", "--config", str(paths / "huge.json")])
    assert code in (0, 1, 2) and "Traceback" not in err, (config, code, err)
    assert code == 2, (config, out)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_each_flag_once(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    flags = [t for t in usage.replace("[", " ").replace("]", " ").split() if t.startswith("-")]
    assert len(flags) == len(set(flags)), usage
    assert set(COMMANDS[command]) - {None} <= set(flags), usage


def test_fuzz_table_follows_the_parser():
    # every command line the parser runs has an entry, none is stale, and each draws exactly its declared flags
    declared = declared_flags()
    assert sorted(COMMANDS) == sorted(declared)
    for command, flags in declared.items():
        assert set(COMMANDS[command]) - {None} == flags, command
