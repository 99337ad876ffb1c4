"""README's examples run as printed: every `shortlist` command line and the library example."""
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import shortlist
from shortlist import cli
from shortlist.experiments import EXPERIMENTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def commands() -> list[str]:
    """Each `shortlist ...` line of the sh blocks, continuation lines joined and comments dropped."""
    lines = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split(" #")[0].strip()
            if line.startswith("shortlist "):
                lines.append(" ".join(line.split()))
    return lines


def test_readme_has_the_examples_this_file_runs():
    assert len(commands()) >= 14 and len(blocks("json")) == 1 and len(blocks("python")) == 1


@pytest.mark.parametrize("command", commands())
def test_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(blocks("json")[0], encoding="utf-8")
    code = cli.main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    # README: the uplift-constrained sushi optimum is infeasible, so that run exits 1
    assert code == (1 if "--uplift" in command else 0), captured.err
    assert captured.err == ""


def test_library_example_prints_its_comments(capsys):
    code = blocks("python")[0]
    assert "# 88/147 > 4/7" in code and "# (0, 2):" in code
    exec(compile(code, "README.md", "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    joint, solo = map(float, first.split(" > "))
    assert joint == pytest.approx(88 / 147, abs=1e-12) and solo == pytest.approx(4 / 7, abs=1e-12)
    assert second.startswith("(0, 2) ")


def library_names() -> list[tuple[str, str]]:
    """Each backticked `module.name` or `shortlist.module.name` whose module is a shortlist module."""
    modules = {info.name for info in pkgutil.iter_modules(shortlist.__path__)}
    return [(mod, name) for mod, name in re.findall(r"`(?:shortlist\.)?(\w+)\.(\w+)`", README) if mod in modules]


def test_library_names_resolve():
    names = library_names()
    assert len(names) >= 7
    missing = [f"{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(f"shortlist.{mod}"), name)]
    assert missing == []


def experiment_table() -> dict[str, list[list[str]]]:
    """The `| experiment | key | ... |` table: each experiment's rows as [key, type, default, CLI flag]."""
    body = re.search(r"^\| experiment +\| key .*\n\|[-|]+\|\n((?:\|.*\n)+)", README, flags=re.M).group(1)
    table: dict[str, list[list[str]]] = {}
    for line in body.splitlines():
        name, *cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        experiment = name.strip("`") or experiment
        table.setdefault(experiment, []).append([cell.strip("`") for cell in cells])
    return table


def test_experiment_table_matches_the_knobs_and_flags():
    table = experiment_table()
    assert sorted(table) == sorted(EXPERIMENTS)
    for name, (_, knobs) in EXPERIMENTS.items():
        assert [row[0] for row in table[name]] == list(knobs), name
        for key, *_, flag in table[name]:
            assert flag == (cli._EXPERIMENT_FLAGS[key][0] if key in cli._EXPERIMENT_FLAGS else ""), (name, key)
