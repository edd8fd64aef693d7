"""The benchmark's traced run patches package attributes by name; they must resolve."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lqmfg import TimeGrid, harness, solve_equilibrium
from lqmfg.config import config_from_dict, config_to_dict, default_config
from lqmfg.params import DomainError
from lqmfg.simulate import sample_rewards

from conftest import make_params

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


# A tiny learner arm (2 rounds of 3 steps) under the benchmark's tracer; prints
# the calls and busy time of every traced span.
_TRACED_ARM = """
import json, sys
sys.path[:0] = ["src", "bench"]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from lqmfg import harness
from lqmfg.config import config_from_dict, config_to_dict, default_config
data = config_to_dict(default_config())
data["lambda_se_values"] = [1.0]
data["learner"].update(n_outer=2, n_inner=3)
harness.run_arm(config_from_dict(data), 1.0)
print(json.dumps({"calls": tracer.calls, "busy": tracer.busy}))
"""


def test_traced_learner_layers_count_every_step():
    # the per-layer evidence of the seed_sweep workload must not read 0
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_ARM], cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    spans = json.loads(out.stdout.splitlines()[-1])
    calls, busy = spans["calls"], spans["busy"]
    assert calls["learner.estimate_gradient"] == 2 * 3
    assert calls["learner.gradient_step"] == 2 * 3
    assert calls["harness.rel_error"] == 1  # the whole trace in one call
    for span in ("learner.estimate_gradient", "learner.gradient_step", "harness.rel_error"):
        assert busy[span] > 0.0, span


def test_seed_sweep_reads_a_scored_trace():
    # SeedSweep.check reads the rel_error of every trace record of a run_arm
    # result: n_outer * (n_inner + 1) values, all finite once the harness
    # has scored the learner's trace
    data = config_to_dict(default_config())
    data["lambda_se_values"] = [1.0]
    data["learner"].update(n_outer=2, n_inner=3)
    arm = harness.run_arm(config_from_dict(data), 1.0)
    errors = np.array([r.rel_error for r in arm.result.trace.records])
    assert errors.shape == (2 * (3 + 1),)
    assert np.isfinite(errors).all()


# One payoff and one equilibrium solve of the reference game on 5 steps
# under the benchmark's tracer; prints the calls and busy time of every span.
_TRACED_CLOSED_FORM = """
import json, sys
sys.path[:0] = ["src", "bench"]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from lqmfg import analytic
from lqmfg.config import default_config
cfg = default_config()
policy = analytic.equilibrium_policy(cfg.game, "se")
analytic.feedback_policy_payoff(cfg.game, policy, policy.reference_mean_fn, cfg.grid)
analytic.solve_equilibrium(cfg.game, "se", cfg.grid)
print(json.dumps({"calls": tracer.calls, "busy": tracer.busy}))
"""


def test_traced_closed_form_layers_count_every_call():
    # the per-layer evidence of the closed_form workload must not read 0
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_CLOSED_FORM], cwd=ROOT, capture_output=True,
        text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    spans = json.loads(out.stdout.splitlines()[-1])
    for span in ("analytic.feedback_policy_payoff", "analytic.solve_equilibrium"):
        assert spans["calls"][span] == 1, span
        assert spans["busy"][span] > 0.0, span


@pytest.mark.parametrize("game", ["se", "ee"])
def test_closed_form_overshoot_failure(game):
    # closed_form counts this error on the reference game at 11 steps as its
    # fixed failed cases: 11 * (0.1 / 11) ends one ulp above T. This is the
    # TimeGrid overshoot named by a FOUND line in CHANGES.md; the change that
    # fixes it must change this test together with the benchmark's check.
    params = make_params(lambda_ce=1.0 if game == "ee" else 0.0)
    with pytest.raises(DomainError, match="outside the horizon"):
        solve_equilibrium(params, game, TimeGrid.from_horizon(params.T, 11))


# Every benchmark workload built at two seeds, constructors only (their
# set-up): a package name the workloads use and the package drops fails here.
_BUILD_WORKLOADS = """
import sys, tempfile
sys.path[:0] = ["src", "bench"]
import workloads
with tempfile.TemporaryDirectory() as out_dir:
    for name, workload in workloads.WORKLOADS.items():
        for seed in (0, 1):
            built = workload(seed, out_dir, call_cli=None)
            assert built.attempted > 0 and built.failed == 0, (name, seed)
print(sorted(workloads.WORKLOADS))
"""


def test_every_workload_builds():
    out = subprocess.run(
        [sys.executable, "-c", _BUILD_WORKLOADS], cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "['closed_form', 'reproduce', 'seed_sweep', 'simulate']"
