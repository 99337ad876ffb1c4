"""The default experiment CSVs, byte for byte.

``tests/data`` holds the output of ``experiment sushi``, ``tension``,
``beta-sweep`` and ``bench`` at their default settings. A change that moves
any output bit of these experiments fails here. ``bench``'s ``seconds``
column is wall time, so its rows are compared on every other column, as
text: welfare, menu, branch-and-bound nodes and evaluations, and the gap
to enumeration. After a deliberate change of output, regenerate a file
with ``python -m shortlist.cli experiment <name> --output tests/data/<name>.csv``.
"""
import csv
from pathlib import Path

import pytest

from shortlist import cli

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["sushi", "tension", "beta-sweep"])
def test_default_experiment_csv_is_unchanged(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert cli.main(["experiment", name, "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def _without_seconds(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return [{key: value for key, value in row.items() if key != "seconds"} for row in csv.DictReader(handle)]


def test_default_bench_rows_are_unchanged_but_for_seconds(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["experiment", "bench", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == (DATA / "bench.csv").read_text().splitlines()[0]
    assert _without_seconds(out) == _without_seconds(DATA / "bench.csv")
