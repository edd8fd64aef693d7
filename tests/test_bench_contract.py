"""The benchmark's traced run patches package attributes by name; they must resolve."""

import inspect
import os
import subprocess
import sys

from lqmfg.simulate import sample_rewards

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_installs_on_the_package():
    code = (
        'import sys; sys.path[:0] = ["src", "bench"]; '
        "import tracing; tracing.install(tracing.Tracer())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr


def test_sample_rewards_leading_parameters():
    # the path-step counter reads n_paths from args[4] and the grid from args[1]
    names = list(inspect.signature(sample_rewards).parameters)
    assert names[:6] == ["params", "grid", "policy", "mean_field", "n_paths", "stream"]
