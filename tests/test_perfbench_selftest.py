"""The benchmark's self-tests run against the library: a library change
that breaks an API the benchmark calls shows up here."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
