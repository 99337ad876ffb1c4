"""The benchmark's tracer still finds every function its workloads must call.

``perfbench/spans.py`` lists in ``TARGETS`` the library functions each
workload must reach; a traced run fails when one records no call, so a
refactor that routes around a listed function fails here first.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_run_of_every_workload_exits_cleanly():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "1", "--tiny", "--seconds", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
