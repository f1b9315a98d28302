"""The benchmark's self-test, run as part of the test suite.

perfbench/ drives naphopf through its public functions and result types;
running its self-test here turns an API change that would break the
benchmark (for example, read-only terms where it expected a dict) into a
test failure instead of a benchmark run that fails later.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("all passed")
