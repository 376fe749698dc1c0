"""The benchmark harness runs against the library as it stands.

``bench/spans.py`` looks up library functions by name (``ControlSequence.indices``,
``Problem.relaxation_schedule`` and others) with no default, so a library change that
breaks the harness fails here, not only in a benchmark run.  The self-test writes only
under the git-ignored ``bench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_self_test_passes():
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-test: PASS" in run.stdout.splitlines()
