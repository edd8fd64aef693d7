"""Every benchmark workload runs once, untraced, and passes its own checks.

``bench/worker.py`` is started the way ``bench/run.py`` starts it, and its
last stdout line is the round's JSON, so a package change that breaks a
workload's ``check`` fails here, not first in a benchmark run.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the operations each workload expects to fail with a named error: the two
# fixed closed_form cases on 11 steps, whose last grid time overshoots the
# horizon
EXPECTED_FAILED = {"reproduce": 0, "seed_sweep": 0, "simulate": 0, "closed_form": 2}


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILED))
def test_workload_passes_its_checks(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "worker.py"), workload, "0", "0",
         str(time.monotonic_ns()), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["failed"] == EXPECTED_FAILED[workload]
