"""The default experiment CSVs, byte for byte.

``tests/data`` holds the output of ``experiment sushi``, ``tension`` and
``beta-sweep`` at their default settings. A change that moves any output
bit of these experiments fails here; ``bench`` is left out, as its ``seconds``
column is wall time. After a deliberate change of output, regenerate a file
with ``python -m shortlist.cli experiment <name> --output tests/data/<name>.csv``.
"""
from pathlib import Path

import pytest

from shortlist import cli

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["sushi", "tension", "beta-sweep"])
def test_default_experiment_csv_is_unchanged(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert cli.main(["experiment", name, "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
