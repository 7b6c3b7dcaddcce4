"""The benchmark's self-test, run against the current `src/`.

A change to the package that breaks what `perfbench/` imports or checks
fails here, not first in a benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST = os.path.join(ROOT, "perfbench", "selftest.py")


@pytest.mark.skipif(not os.path.isfile(SELFTEST), reason="no perfbench/ in this checkout")
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, SELFTEST], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
