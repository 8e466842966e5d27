"""The benchmark's own checks pass against the current sources.

perfbench/selftest.py checks the seeded generator, the oracle, the
reference-loop sampling, traced span nesting and the refusal to run
without sources.  It runs as its own process from the repository root,
as the benchmark does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_exits_zero():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
