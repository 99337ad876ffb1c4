"""The repository's pytest settings: a failing Hypothesis property is one failed test, and the run goes on."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_a_test_that_passes():
    pass
'''


def test_a_failing_property_does_not_abort_the_run(tmp_path):
    # Hypothesis's failure report imports libcst, which imports mypy_extensions' deprecated
    # TypedDict; with every warning an error that ended the run in an INTERNALERROR (exit 3)
    path = tmp_path / "test_property.py"
    path.write_text(PROPERTY_FILE)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
               "-p", "no:cacheprovider", "-q", str(path)]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
