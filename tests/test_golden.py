"""Golden-digest regression guard: refactors must not change a single bit.

The SHA-256 digests below pin the exact bytes of the package's main
outputs: the three report CSVs of ``reproduce`` (built-in configuration cut
to two rounds of 30 steps), the state paths and rewards of the Euler
rollout at 2^14 + 1 paths (one path past a full chunk) on a 50-step grid
against a linear mean path, and one gradient estimate in each estimator
mode. They were computed with numpy 2.4.6 on x86-64; a different numpy
release may change the Philox normal draws or the rounding of ``log`` and
``sqrt`` and so invalidate them, which is a reason to regenerate, not to
loosen the comparison.
"""

import dataclasses
import hashlib

import numpy as np

from lqmfg import (
    LearnerConfig,
    MeanField,
    TimeGrid,
    estimate_gradient,
    reference_policy,
    reproduce,
    sample_rewards,
    simulate_states,
)
from lqmfg import rng
from lqmfg.config import config_from_dict, config_to_dict, default_config

from conftest import make_params

GOLDEN = {
    "learning_curve.csv":
        "d8f7cfc2941dde07dc1bc5b9f6a506c677b3cac649e87c81a7eb6b1f1b7f09e0",
    "variance_schedule.csv":
        "e1202247d9af97e9328d9fb67943ce75eb380e6a1c0a0b957811ffb7a9da256f",
    "mean_field.csv":
        "d41ccfce7a4c12c5a660380d28f358a6bbd8cfb46c24596e69da62a9896a3852",
    "simulate_states":
        "46c20dd01459235970aa48787b61a2c63c70b37c973f999f4bf228ac7d0b53a2",
    "sample_rewards":
        "a94c5964d94d16b54825219544eff0461cb2e132499a66a5416d0e21e1817b69",
    "estimate_gradient[shared+loo]":
        "cae6b0f0b8d88bb98e2c57c7b4d93870d9f950de1b6bb0713d8ef9cdad4716e0",
    "estimate_gradient[raw]":
        "943797a65d9c970c139a0fe9570a37b4d063abd783fe82c406a608a2f94bf10b",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_report_tables(tmp_path):
    data = config_to_dict(default_config())
    data["learner"].update({"n_outer": 2, "n_inner": 30})
    data["output_dir"] = str(tmp_path)
    reproduce(config_from_dict(data))
    for name in ("learning_curve.csv", "variance_schedule.csv", "mean_field.csv"):
        assert _sha((tmp_path / name).read_bytes()) == GOLDEN[name], name


def _rollout_inputs():
    params = make_params()
    grid = TimeGrid.from_horizon(params.T, 50)
    policy = reference_policy(params, grid)
    mean_field = MeanField(np.linspace(0.1, 0.3, grid.n_steps + 1))
    return params, grid, policy, mean_field


def test_rollout_outputs():
    params, grid, policy, mean_field = _rollout_inputs()
    n = (1 << 14) + 1
    states = simulate_states(
        params, grid, policy, mean_field, n, rng.substream(11, rng.TRAJECTORY)
    )
    rewards = sample_rewards(
        params, grid, policy, mean_field, n, rng.substream(12, rng.TRAJECTORY)
    )
    assert _sha(states.tobytes()) == GOLDEN["simulate_states"]
    assert _sha(rewards.tobytes()) == GOLDEN["sample_rewards"]


def test_gradient_estimates():
    params = make_params()
    grid = TimeGrid.from_horizon(params.T, 5)
    policy = reference_policy(params, grid)
    mean_field = MeanField.constant(0.05, grid)
    shared = LearnerConfig()
    raw = dataclasses.replace(shared, shared_rollout_noise=False, baseline="none")
    for key, cfg in (("estimate_gradient[shared+loo]", shared), ("estimate_gradient[raw]", raw)):
        stream = rng.substream(3, rng.PERTURBATION, 1, 2)
        estimate = estimate_gradient(params, grid, policy, mean_field, cfg, stream)
        assert _sha(estimate.tobytes()) == GOLDEN[key], key
