"""Golden-digest regression guard: refactors must not change a single bit.

A change that is meant to move bits regenerates only the digests it moves,
once, with a comment beside them saying why.

The SHA-256 digests below pin the exact bytes of the package's main
outputs: the three report CSVs of ``reproduce`` (built-in configuration cut
to two rounds of 30 steps) and the traces of ``run_arms`` on a stack of
two seeds shared unevenly (the same cut), the state paths and rewards of the Euler
rollout at 2^14 + 1 paths (one path past a full chunk) on a 50-step grid
against a linear mean path, one gradient estimate, the moment-ODE payoff
(the four parts of ``feedback_policy_payoff`` and the ``_moment_paths``
arrays behind them) of equilibrium, per-step and linear policies, every
array of ``solve_equilibrium`` with its game value, and the file
``save_config`` writes for the built-in configuration. They were computed with numpy 2.4.6 on x86-64; a different numpy
release may change the Philox normal draws or the rounding of ``log`` and
``sqrt`` and so invalidate them, which is a reason to regenerate, not to
loosen the comparison.
"""

import hashlib

import numpy as np

from lqmfg import (
    GaussianFeedbackPolicy,
    LearnerConfig,
    TimeGrid,
    equilibrium_policy,
    estimate_gradient,
    feedback_policy_payoff,
    reference_policy,
    reproduce,
    sample_rewards,
    simulate_states,
    solve_equilibrium,
)
from lqmfg import harness, rng
from lqmfg.analytic import DEFAULT_REFINEMENT, _refined_times, step_fn
from lqmfg.cli import main
from lqmfg.config import config_from_dict, config_to_dict, default_config, save_config
from lqmfg.learner import _draw_block

from conftest import make_params
from test_moment_paths import sampled_moment_paths

GOLDEN = {
    # regenerated when trace rows came to be scored by the exact expected
    # reward instead of a Monte Carlo estimate on frozen draws, and again
    # when the scorer's mean update took the fictitious-play update's order
    # of operations (one recursion for both): last bits of some errors moved
    "learning_curve.csv":
        "4c9a2d0f7bb34463fd2e2c865cb9a867368cfb7da79786e3512fe26a1dee5782",
    "variance_schedule.csv":
        "e1202247d9af97e9328d9fb67943ce75eb380e6a1c0a0b957811ffb7a9da256f",
    "mean_field.csv":
        "d41ccfce7a4c12c5a660380d28f358a6bbd8cfb46c24596e69da62a9896a3852",
    # five arms on seeds 3 and 4: each arm's records, then its mean paths
    "run_arms[mixed seeds]":
        "ac7607ac5bb7afc06bb2d95849dab2136f7816d86f3a60a81da8b54d4f5747aa",
    "simulate_states":
        "46c20dd01459235970aa48787b61a2c63c70b37c973f999f4bf228ac7d0b53a2",
    "sample_rewards":
        "a94c5964d94d16b54825219544eff0461cb2e132499a66a5416d0e21e1817b69",
    "estimate_gradient[shared+loo]":
        "cae6b0f0b8d88bb98e2c57c7b4d93870d9f950de1b6bb0713d8ef9cdad4716e0",
    # regenerated once when each RK4 step of the payoff's moment ODE became
    # one affine map (formed for all steps at once, then a plain recurrence):
    # the reordered arithmetic moves each path by at most 3.1e-13 of its
    # largest magnitude and each payoff part by at most 2.5e-13 relative,
    # far below the trapezoid's own O(h^2) error (about 1e-6 relative);
    # regenerated again when a log-depth prefix scan came to compose those
    # maps: each part moved by at most 1.6e-13 relative (entropy not at all)
    # and each path stays within 3.3e-13 of a per-node RK4's largest magnitude;
    # regenerated again when each map came to be formed in closed form from
    # the node and midpoint samples and scanned as 1 + delta: each part moved
    # by at most 1.96e-13 relative (entropy not at all) and each path now
    # stays within 3.4e-15 of a per-node RK4's largest magnitude
    "feedback_policy_payoff[se[5]]":
        "a0f3968b1d39caef6904d721299f2479e0ea86c7bcdc1dd1bcf630f5e4729633",
    "feedback_policy_payoff[ee[5]]":
        "a701a7d646eb5d729899280d8daffe67a242c3bed1c0b5f4a1c239da8ba6c9eb",
    "feedback_policy_payoff[se[11]]":
        "a01fe2096e94ddac03b6ea8791b79150e0bee4247342e1f2a4af9fc1e3dcffdd",
    "feedback_policy_payoff[ee[11]]":
        "9cc1e6c66c6b4ccc4396a7779a7a4adf352ea00c6341c3d64ed77394ca8b960d",
    "feedback_policy_payoff[se[50]]":
        "363bfae95cd08efc32a90e06197001bf733135d61d5163991970b3234efa9a0f",
    "feedback_policy_payoff[ee[50]]":
        "7336a554d7f2dd8bef57d0b183c209edf2698f493b55ac603624eece06c68258",
    "feedback_policy_payoff[step_fn[7]]":
        "517d060eb159b746be1e1c30bd82c53af7d7cb8f381d1ac41bd25dfb5254fa89",
    "feedback_policy_payoff[linear[5]]":
        "33fb05725a01c9958db02207eaaa2a66cecf831fc4df77af3e51d49c22a4c512",
    "solve_equilibrium":
        "caa466c1de5819710a7b09b82ed600071ddcdcea4f3032366ef59247f001acb0",
    "simulate --dump-paths":
        "2af4e9ddef68e17f57c8914d28acffb64d038fd2c0d5f0cd2a84a28dffa9abc5",
    # computed once the raw-estimator and cold-start switches left the
    # schema, and regenerated when learner.init and
    # learner.initial_mean_field left it, and again when output_dir left
    # it for --out-dir; a later schema change must regenerate it and say so
    "default_config.json":
        "f873765d32a6d1dce2c6d3aefac4055110cb5376f85c207f0b8322fe448cdbb1",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_report_tables(tmp_path):
    data = config_to_dict(default_config())
    data["learner"].update({"n_outer": 2, "n_inner": 30})
    reproduce(config_from_dict(data), str(tmp_path))
    for name in ("learning_curve.csv", "variance_schedule.csv", "mean_field.csv"):
        assert _sha((tmp_path / name).read_bytes()) == GOLDEN[name], name


def test_mixed_seed_stack():
    # more than one distinct seed, fewer than the arms: the inner loop copies
    # each step's directions per arm, which a one-seed stack never does
    data = config_to_dict(default_config())
    data["learner"].update({"n_outer": 2, "n_inner": 30})
    arms = harness.run_arms(
        config_from_dict(data), [(0.0, 3), (1.0, 3), (3.0, 3), (1.0, 4), (3.0, 4)]
    )
    digest = _sha(b"".join(
        arm.result.trace.records.tobytes() + arm.result.trace.mean_paths.tobytes()
        for arm in arms
    ))
    assert digest == GOLDEN["run_arms[mixed seeds]"]


def test_saved_default_config(tmp_path):
    path = tmp_path / "default.json"
    save_config(default_config(), str(path))
    assert _sha(path.read_bytes()) == GOLDEN["default_config.json"]


def test_simulate_dump(tmp_path, capsys):
    dump = tmp_path / "rewards.csv"
    code = main([
        "simulate", "--policy", "se", "--set", "grid.n_steps=50",
        "--n-paths", str(3 * (1 << 14) + 5), "--seed", "5", "--dump-paths", str(dump),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha(out.encode() + dump.read_bytes()) == GOLDEN["simulate --dump-paths"]


def _rollout_inputs():
    params = make_params()
    grid = TimeGrid.from_horizon(params.T, 50)
    policy = reference_policy(params, grid)
    mean_field = np.linspace(0.1, 0.3, grid.n_steps + 1)
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
    mean_field = np.full(grid.n_steps + 1, 0.05)
    # the draws of step i=2 of round k=1 on the substreams of seed 3
    cfg = LearnerConfig()
    U, x0, dW = (d[0] for d in _draw_block(params, grid, cfg, [3], 1, range(2, 3)))
    estimate = estimate_gradient(
        params, grid, np.concatenate(([policy.m_hat], policy.sigma2))[None],
        mean_field[:, None, None], cfg, np.array([params.lambda_se]), U, x0, dW,
    )
    assert _sha(estimate.tobytes()) == GOLDEN["estimate_gradient[shared+loo]"]


def _payoff_cases():
    """(name, params, policy, mean path, grid) for the payoff digests."""
    cases = []
    for n_steps in (5, 11, 50):
        for game in ("se", "ee"):
            params = make_params(lambda_ce=1.0 if game == "ee" else 0.0)
            policy = equilibrium_policy(params, game)
            grid = TimeGrid.from_horizon(params.T, n_steps)
            cases.append((f"{game}[{n_steps}]", params, policy, policy.reference_mean_fn, grid))
    # 0.1 / 7 is inexact: step left endpoints fall between refined nodes
    params = make_params()
    grid = TimeGrid.from_horizon(0.1, 7)
    mean_fn = step_fn(np.linspace(0.1, 0.4, 7), grid)
    policy = GaussianFeedbackPolicy(
        mean_coeff=0.5,
        variance_fn=step_fn(np.linspace(0.4, 0.2, 7), grid),
        reference_mean_fn=mean_fn,
    )
    cases.append(("step_fn[7]", params, policy, mean_fn, grid))

    def linear_variance(t):
        return 0.3 - 0.8 * np.asarray(t)

    def linear_mean(t):
        return 0.05 + 0.7 * np.asarray(t)

    policy = GaussianFeedbackPolicy(
        mean_coeff=0.6, variance_fn=linear_variance, reference_mean_fn=linear_mean
    )
    cases.append(("linear[5]", params, policy, linear_mean, TimeGrid.from_horizon(0.1, 5)))
    return cases


def test_payoff_outputs():
    for name, params, policy, mean_fn, grid in _payoff_cases():
        out = feedback_policy_payoff(params, policy, mean_fn, grid)
        parts = np.array([out.total, out.running_quadratic, out.entropy, out.terminal])
        times = _refined_times(0.0, params.T, grid.dt, DEFAULT_REFINEMENT)
        mhat, phi2 = sampled_moment_paths(
            params, policy.mean_coeff, policy.variance_fn, mean_fn, times
        )
        digest = _sha(parts.tobytes() + mhat.tobytes() + phi2.tobytes())
        assert digest == GOLDEN[f"feedback_policy_payoff[{name}]"], name


def test_solve_outputs():
    # both variants of the reference game (lambda_ce = 1 for "ee"), one digest
    chunks = []
    for n_steps in (5, 50, 100):
        for game in ("se", "ee"):
            params = make_params(lambda_ce=1.0 if game == "ee" else 0.0)
            sol = solve_equilibrium(params, game, TimeGrid.from_horizon(params.T, n_steps))
            for column in (sol.times, sol.riccati, sol.value_offset,
                           sol.policy_variance, sol.state_variance):
                chunks.append(column.tobytes())
            chunks.append(np.float64(sol.game_value).tobytes())
    assert _sha(b"".join(chunks)) == GOLDEN["solve_equilibrium"]
