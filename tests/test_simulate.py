import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg import (
    ParameterError,
    PayoffEvaluator,
    PolicyParams,
    TimeGrid,
    DomainError,
    discrete_moments,
    discretize_policy,
    equilibrium_policy,
    feedback_policy_payoff,
    sample_rewards,
    simulate_states,
    solve_equilibrium,
)
from lqmfg import rng
from lqmfg.analytic import constant_fn, game_value
from lqmfg.simulate import _CHUNK, SIGMA_FLOOR, check_path, rollout

from conftest import draw_noise, make_params, mc_reward, random_params

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import oracle  # noqa: E402


def ne_policy(params, grid):
    return discretize_policy(equilibrium_policy(params, "se"), grid)


def one_step(params, m_hat, sigma2, m_s, x_s, w, dt=0.02):
    """State after one Euler step of the rollout kernel from x_s."""
    x_s = np.atleast_1d(np.asarray(x_s, dtype=float))
    states = np.empty((len(x_s), 2))
    rollout(params, dt, np.array([m_s, m_s]), m_hat, np.array([sigma2]),
            x_s, np.full((len(x_s), 1), w), states)
    return states[:, 1]


class TestStepMoments:
    """Drift and squared diffusion of one kernel step on hand-set noise."""

    def test_at_the_mean(self, params):
        x1 = one_step(params, 0.7, 0.3, m_s=0.1, x_s=0.1, w=0.05)
        # no drift at the mean; the diffusion is the exploration noise alone
        assert x1[0] - 0.1 == pytest.approx(math.sqrt(params.D**2 * 0.3) * 0.05, rel=1e-14)

    def test_no_feedback_control(self, params):
        drift = one_step(params, 0.0, 0.3, m_s=0.5, x_s=0.2, w=0.0)[0] - 0.2
        assert drift == pytest.approx(params.A * 0.3 * 0.02, rel=1e-14)
        noisy = one_step(params, 0.0, 0.3, m_s=0.5, x_s=0.2, w=1.0)[0] - 0.2 - drift
        assert noisy == pytest.approx(math.sqrt(params.D**2 * 0.3), rel=1e-14)

    def test_reference_arithmetic(self, params):
        x1 = one_step(params, 0.75, 0.3, m_s=1.0, x_s=0.0, w=0.0)
        assert x1[0] == pytest.approx(4.25 * 0.02, rel=1e-14)

    def test_vectorized_states(self, params):
        xs = np.array([0.0, 0.1, 0.2])
        drift = one_step(params, 0.75, 0.3, 0.1, xs, w=0.0) - xs
        diffusion = one_step(params, 0.75, 0.3, 0.1, xs, w=1.0) - xs - drift
        gap = 0.1 - xs
        np.testing.assert_allclose(drift, (params.A + params.B * 0.75) * gap * 0.02, rtol=1e-12)
        np.testing.assert_allclose(
            diffusion, np.sqrt(params.D**2 * (0.75**2 * gap**2 + 0.3)), rtol=1e-12
        )


class TestSimulateTrajectory:
    def test_floor_variance_pins_the_state(self, grid):
        p = make_params(xi_mean=0.3, xi_second_moment=0.09)  # deterministic start
        policy = PolicyParams(m_hat=0.75, sigma2=np.full(5, SIGMA_FLOOR))
        mf = np.full(grid.n_steps + 1, 0.3)
        states = simulate_states(p, grid, policy, mf, 1, rng.substream(0, 1))[0]
        # noise scale is D * sqrt(floor * T) ~ 6e-4; allow a generous margin
        assert np.max(np.abs(states - 0.3)) < 5e-3

    def test_same_substream_identical(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        s1 = simulate_states(params, grid, policy, mf, 3, rng.substream(7, 1, 3))
        s2 = simulate_states(params, grid, policy, mf, 3, rng.substream(7, 1, 3))
        np.testing.assert_array_equal(s1, s2)

    def test_mean_invariance_monte_carlo(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        states = simulate_states(
            params, grid, policy, mf, 100_000, rng.substream(5, rng.TRAJECTORY)
        )
        x_T = states[:, -1]
        stderr = x_T.std(ddof=1) / math.sqrt(len(x_T))
        assert abs(x_T.mean() - params.xi_mean) <= 3 * stderr

    def test_misaligned_inputs_rejected(self, params, grid):
        policy = PolicyParams(m_hat=0.5, sigma2=np.full(4, 0.3))
        mf = np.full(grid.n_steps + 1, 0.1)
        with pytest.raises(ParameterError):
            simulate_states(params, grid, policy, mf, 1, rng.substream(0, 1))


def kernel_rewards(params, grid, policy, mf, x0, dW, states=None):
    return rollout(params, grid.dt, mf, policy.m_hat, policy.sigma2, x0, dW, states)


class TestRealizedReward:
    """Rewards returned by the rollout kernel on hand-set or shared noise."""

    def test_pinned_null_case(self, params, grid):
        sigma2 = 1.0 / (2.0 * math.pi * math.e)
        policy = PolicyParams(m_hat=0.4, sigma2=np.full(5, sigma2))
        mf = np.full(grid.n_steps + 1, 0.2)
        reward = kernel_rewards(params, grid, policy, mf, np.array([0.2]), np.zeros((1, 5)))
        assert reward[0] == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_part_linear_in_penalties(self, grid):
        p1 = make_params(lambda_se=0.0)
        p3 = make_params(lambda_se=0.0, Q=3 * 3.0, Q_bar=3 * 2.0)
        policy = PolicyParams(m_hat=0.5, sigma2=np.full(5, 0.3))
        mf = np.full(grid.n_steps + 1, 0.1)
        x0, dW = draw_noise(rng.substream(3, 1), p1, grid.dt, 4, grid.n_steps)
        r1 = kernel_rewards(p1, grid, policy, mf, x0, dW)
        r3 = kernel_rewards(p3, grid, policy, mf, x0, dW)
        np.testing.assert_allclose(r3, 3 * r1, rtol=1e-12)

    def test_entropy_additivity(self, params, grid):
        p0 = make_params(lambda_se=0.0)
        policy = PolicyParams(m_hat=0.5, sigma2=np.linspace(0.4, 0.2, 5))
        mf = np.full(grid.n_steps + 1, 0.1)
        x0, dW = draw_noise(rng.substream(4, 1), params, grid.dt, 4, grid.n_steps)
        states = np.empty((4, grid.n_steps + 1))
        full = kernel_rewards(params, grid, policy, mf, x0, dW, states)
        quad = kernel_rewards(p0, grid, policy, mf, x0, dW)
        bonus = (
            0.5 * params.lambda_se
            * np.sum(np.log(2 * math.pi * math.e * policy.sigma2)) * grid.dt
        )
        np.testing.assert_allclose(full, quad + bonus, rtol=1e-12)
        # the quadratic part read off the returned state paths
        gaps = states - mf
        expected = (
            -0.5 * params.Q * np.sum(gaps[:, :-1] ** 2, axis=1) * grid.dt
            - 0.5 * params.Q_bar * gaps[:, -1] ** 2
        )
        np.testing.assert_allclose(quad, expected, rtol=1e-12)

    def test_average_matches_game_value(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        mean, stderr = mc_reward(params, grid, policy, mf, 100_000, seed=9)
        gv = game_value(params, "se", grid)
        # 3 sigma plus a first-order time-step budget (measured sensitivity
        # is about 0.38 * dt; see the acceptance suite)
        assert abs(mean - gv) <= 3 * stderr + 0.6 * grid.dt


class TestRolloutInputs:
    """Shapes and memory orders the kernel accepts, and inputs it must not touch."""

    def _inputs(self, params, grid, n=7):
        x0, dW = draw_noise(rng.substream(5, 1), params, grid.dt, n, grid.n_steps)
        m_hats = np.linspace(0.2, 1.1, n)
        sigma2s = np.linspace(0.1, 0.5, n * grid.n_steps).reshape(n, grid.n_steps)
        m_values = np.linspace(0.0, 0.2, grid.n_steps + 1)
        return x0, dW, m_hats, sigma2s, m_values

    def test_shared_path_equals_its_broadcast(self, params, grid):
        x0, dW, m_hats, sigma2s, m_values = self._inputs(params, grid)
        n = len(x0)
        shared = rollout(params, grid.dt, m_values, m_hats, sigma2s, x0[0], dW[0])
        spread = rollout(
            params, grid.dt, m_values, m_hats, sigma2s,
            np.full(n, x0[0]), np.broadcast_to(dW[0], (n, grid.n_steps)),
        )
        assert shared.shape == (n,)
        np.testing.assert_array_equal(shared, spread)

    def test_memory_order_does_not_change_the_bits(self, params, grid):
        x0, dW, m_hats, sigma2s, m_values = self._inputs(params, grid)
        assert dW.flags.f_contiguous
        outputs = []
        for noise in (np.ascontiguousarray(dW), np.asfortranarray(dW)):
            states = np.empty((len(x0), grid.n_steps + 1))
            rewards = rollout(params, grid.dt, m_values, m_hats, sigma2s, x0, noise, states)
            outputs.append((rewards, states))
        np.testing.assert_array_equal(outputs[0][0], outputs[1][0])
        np.testing.assert_array_equal(outputs[0][1], outputs[1][1])

    def test_inputs_are_left_unmodified(self, params, grid):
        inputs = self._inputs(params, grid)
        x0, dW, m_hats, sigma2s, m_values = inputs
        before = [np.copy(a) for a in inputs]
        first = rollout(params, grid.dt, m_values, m_hats, sigma2s, x0, dW)
        second = rollout(params, grid.dt, m_values, m_hats, sigma2s, x0, dW)
        np.testing.assert_array_equal(first, second)
        for kept, now in zip(before, inputs):
            np.testing.assert_array_equal(kept, now)

    def test_a_path_does_not_depend_on_its_batch(self, params, grid):
        # lockstep batching relies on it: a slice of the inputs scores the
        # same bits as the same slice of the full call
        x0, dW, m_hats, sigma2s, m_values = self._inputs(params, grid, n=1001)
        full = rollout(params, grid.dt, m_values, m_hats, sigma2s, x0, dW)
        for part in (slice(0, 1), slice(3, 10), slice(1, 1000), slice(517, 1001)):
            alone = rollout(
                params, grid.dt, m_values, m_hats[part], sigma2s[part], x0[part], dW[part]
            )
            assert alone.tobytes() == full[part].tobytes(), part

    def test_a_stack_of_arms_scores_each_arm_as_alone(self, params, grid):
        # arms with their own mean path and entropy weight (0 included) in
        # one call, laid out (arm, path) as the learner stacks them
        x0, dW, m_hats, sigma2s, _ = self._inputs(params, grid, n=60)
        lams = [1.0, 0.0, 3.0]

        def stack(a):
            return a.reshape((3, 20) + a.shape[1:])

        m_paths = np.linspace(0.0, 0.2, 3 * (grid.n_steps + 1)).reshape(3, grid.n_steps + 1)
        together = rollout(
            params, grid.dt, m_paths.T[:, :, None], stack(m_hats), stack(sigma2s),
            stack(x0), stack(dW), lambda_se=np.array(lams)[:, None, None],
        )
        assert together.shape == (3, 20)
        for j, lam in enumerate(lams):
            alone = rollout(
                dataclasses.replace(params, lambda_se=lam), grid.dt, m_paths[j],
                stack(m_hats)[j], stack(sigma2s)[j], stack(x0)[j], stack(dW)[j],
            )
            assert alone.tobytes() == together[j].tobytes(), lam


    @pytest.mark.parametrize("entropy", [False, True], ids=["no_entropy", "entropy"])
    @pytest.mark.parametrize("with_states", [False, True], ids=["rewards", "states"])
    @pytest.mark.parametrize("n_arms", [1, 3])
    def test_broadcast_and_step_major_layouts_give_the_same_bits(
        self, params, grid, n_arms, with_states, entropy
    ):
        # the learner passes each arm's mean path and increments broadcast
        # over its n perturbations, and its per-step operands step-major
        n, n_steps = 8, grid.n_steps
        x0, dW, m_hats, sigma2s, _ = self._inputs(params, grid, n=n_arms * n)
        x0, dW = x0.reshape(n_arms, n)[:, :1], dW.reshape(n_arms, n, n_steps)[:, :1]
        m_hats, sigma2s = m_hats.reshape(n_arms, n), sigma2s.reshape(n_arms, n, n_steps)
        paths = np.linspace(0.0, 0.2, n_arms * (n_steps + 1)).reshape(n_arms, -1).T[:, :, None]
        lams = np.array([1.0, 0.0, 3.0][:n_arms])[:, None, None] if entropy else None
        game = params if entropy else dataclasses.replace(params, lambda_se=0.0)

        def step_major(a):
            # the same values, the step (last) axis outermost in memory
            out = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
            assert out[..., 0].flags.c_contiguous
            return out

        def run(m_values, sigma2, noise):
            states = np.empty((n_arms, n_steps + 1, n)) if with_states else None
            rewards = rollout(
                game, grid.dt, m_values, m_hats, sigma2, x0, noise, states, lambda_se=lams
            )
            return rewards, states

        full_paths, full_dW = np.repeat(paths, n, axis=2), np.repeat(dW, n, axis=1)
        expected = run(paths, sigma2s, dW)
        for layout in [
            (full_paths, sigma2s, dW),
            (paths, step_major(sigma2s), dW),
            (paths, sigma2s, full_dW),
            (full_paths, step_major(sigma2s), step_major(full_dW)),
        ]:
            for got, want in zip(run(*layout), expected):
                np.testing.assert_array_equal(got, want)


class TestMcExpectedReward:
    """``mean_and_stderr`` of ``sample_rewards`` on a trajectory substream."""

    def test_degenerate_dynamics_zero_stderr(self, grid):
        p = make_params(xi_mean=0.3, xi_second_moment=0.09)
        policy = PolicyParams(m_hat=0.75, sigma2=np.full(5, SIGMA_FLOOR))
        mf = np.full(grid.n_steps + 1, 0.3)
        _, stderr = mc_reward(p, grid, policy, mf, 2, seed=0)
        assert stderr < 1e-5

    def test_clt_scaling(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        ratios = []
        for seed in range(5):
            _, se1 = mc_reward(params, grid, policy, mf, 2048, seed=seed)
            _, se2 = mc_reward(params, grid, policy, mf, 4096, seed=seed + 100)
            ratios.append(se2 / se1)
        assert np.mean(ratios) == pytest.approx(1 / math.sqrt(2), abs=0.08)

    def test_seed_determinism(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        a = mc_reward(params, grid, policy, mf, 4096, seed=77)
        b = mc_reward(params, grid, policy, mf, 4096, seed=77)
        assert a == b


class TestExpectedRewardExact:
    def test_matches_monte_carlo(self, params, grid):
        policy = PolicyParams(m_hat=0.6, sigma2=np.linspace(0.4, 0.2, 5))
        mf = np.linspace(0.0, 0.2, 6)
        mean, stderr = mc_reward(params, grid, policy, mf, 200_000, seed=13)
        exact = discrete_moments(params, grid, policy.m_hat, policy.sigma2, mf)[2]
        assert abs(exact - mean) <= 3 * stderr

    def test_approaches_continuous_payoff(self, params):
        pol = equilibrium_policy(params, "se")
        cont = feedback_policy_payoff(params, pol, constant_fn(params.xi_mean),
                                      TimeGrid.from_horizon(params.T, 5)).total
        gaps = []
        for n in (5, 50, 500):
            g = TimeGrid.from_horizon(params.T, n)
            policy = discretize_policy(pol, g)
            exact = discrete_moments(
                params, g, policy.m_hat, policy.sigma2, np.full(g.n_steps + 1, params.xi_mean)
            )[2]
            gaps.append(abs(exact - cont))
        assert gaps[0] > gaps[1] > gaps[2]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 12))
    def test_batched_rows_match_the_oracle_and_sampling(self, seed, n_steps):
        # a (3, 4) batch of gains, schedules and paths on a random game
        gen = np.random.default_rng(seed)
        params = random_params(gen)
        grid = TimeGrid.from_horizon(params.T, n_steps)
        m_hat = gen.uniform(-0.5, 2.0, (3, 4))
        sigma2 = gen.uniform(1e-3, 1.0, (3, 4, n_steps))
        paths = gen.uniform(-1.0, 1.0, (3, 4, n_steps + 1))
        rewards = discrete_moments(params, grid, m_hat, sigma2, paths)[2]
        assert rewards.shape == (3, 4)
        game = {name: getattr(params, name) for name in oracle.REFERENCE_GAME}
        for j in np.ndindex(3, 4):
            expected = oracle.discrete_expected_reward(
                game, n_steps, m_hat[j], sigma2[j], paths[j]
            )
            # relative to the magnitude of the reward's terms: the quadratic
            # penalties and the entropy bonus can nearly cancel
            bonus = 0.5 * params.lambda_se * grid.dt * np.abs(
                np.log(2 * math.pi * math.e * sigma2[j])
            ).sum()
            assert abs(rewards[j] - expected) <= 1e-12 * (abs(expected) + bonus)
            alone = discrete_moments(params, grid, m_hat[j], sigma2[j], paths[j])[2]
            assert alone.tobytes() == rewards[j].tobytes()
        policy = PolicyParams(m_hat=float(m_hat[0, 0]), sigma2=sigma2[0, 0])
        mean, stderr = mc_reward(params, grid, policy, paths[0, 0], 1 << 16, seed)
        assert abs(mean - rewards[0, 0]) <= 4 * stderr


class TestDiscreteMoments:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 12))
    def test_reward_is_rebuilt_from_the_paths_and_rows_keep_their_bits(self, seed, n_steps):
        # a (2, 3) stack of gains, schedules, paths and temperatures
        gen = np.random.default_rng(seed)
        params = random_params(gen)
        grid = TimeGrid.from_horizon(params.T, n_steps)
        m_hat = gen.uniform(-0.5, 2.0, (2, 3))
        sigma2 = gen.uniform(1e-3, 1.0, (2, 3, n_steps))
        paths = gen.uniform(-1.0, 1.0, (2, 3, n_steps + 1))
        lambdas = gen.uniform(0.0, 3.0, (2, 3))
        mean, var, reward = discrete_moments(params, grid, m_hat, sigma2, paths, lambdas)
        assert mean.shape == var.shape == paths.shape and reward.shape == (2, 3)
        # the reward is its running and terminal quadratic penalties on the
        # state's second moment about the mean path, plus the entropy bonus
        penalty = 0.5 * (var + (paths - mean) ** 2)
        running = -params.Q * grid.dt * penalty[..., :-1]
        bonus = 0.5 * lambdas[..., None] * grid.dt * np.log(2 * math.pi * math.e * sigma2)
        terminal = -params.Q_bar * penalty[..., -1]
        rebuilt = running.sum(axis=-1) + bonus.sum(axis=-1) + terminal
        scale = np.abs(running).sum(axis=-1) + np.abs(bonus).sum(axis=-1) + np.abs(terminal)
        assert np.all(np.abs(reward - rebuilt) <= 1e-12 * scale)
        for j in np.ndindex(2, 3):
            alone = discrete_moments(params, grid, m_hat[j], sigma2[j], paths[j], lambdas[j])
            for part, stacked in zip(alone, (mean, var, reward)):
                assert part.tobytes() == stacked[j].tobytes()


class TestPropagateMeanField:
    def test_equilibrium_fixed_point(self, params, grid):
        policy = ne_policy(params, grid)
        prev = np.full(grid.n_steps + 1, params.xi_mean)
        out = discrete_moments(params, grid, policy.m_hat, policy.sigma2, prev)[0]
        np.testing.assert_allclose(out, params.xi_mean, rtol=1e-15)

    def test_zero_coupling_gain(self, params, grid):
        policy = PolicyParams(m_hat=-params.A / params.B, sigma2=np.full(5, 0.3))
        prev = np.linspace(-3.0, 7.0, 6)
        out = discrete_moments(params, grid, policy.m_hat, policy.sigma2, prev)[0]
        np.testing.assert_allclose(out, params.xi_mean, rtol=1e-15)

    def test_iterates_contract_to_the_initial_mean(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, 0.0)
        gaps = []
        for _ in range(10):
            mf = discrete_moments(params, grid, policy.m_hat, policy.sigma2, mf)[0]
            gaps.append(np.max(np.abs(mf - params.xi_mean)))
        # strict contraction until the update reaches the fixed point exactly:
        # the pinned initial mean propagates one grid step per round, so the
        # path is at the fixed point after n_steps rounds
        assert gaps[0] < 0.1
        for a, b in zip(gaps, gaps[1:]):
            assert b < a or (a == 0.0 and b == 0.0)
        assert gaps[grid.n_steps] == 0.0

    def test_monte_carlo_variant_agrees(self, params, grid):
        policy = ne_policy(params, grid)
        prev = np.linspace(0.0, 0.2, 6)
        exact, var, _ = discrete_moments(params, grid, policy.m_hat, policy.sigma2, prev)
        states = simulate_states(
            params, grid, policy, prev, 200_000, rng.substream(3, rng.TRAJECTORY)
        )
        mc = states.mean(axis=0)
        assert np.max(np.abs(mc - exact)) < 0.01
        # and the variance path: the sample variance's standard error is
        # about sqrt(2 / n) * var for near-Gaussian states
        assert np.all(np.abs(states.var(axis=0, ddof=1) - var) <= 5 * np.sqrt(2 / 200_000) * var)

    def test_a_stack_updates_each_path_as_alone(self, params, grid):
        gen = np.random.default_rng(8)
        m_hats = gen.uniform(-1.0, 3.0, 7)
        prev = gen.uniform(-1.0, 1.0, (7, grid.n_steps + 1))
        sigma2 = gen.uniform(1e-3, 1.0, (7, grid.n_steps))
        stacked = discrete_moments(params, grid, m_hats, sigma2, prev)[0]
        alone = [discrete_moments(params, grid, m, s2, path)[0]
                 for m, s2, path in zip(m_hats, sigma2, prev)]
        assert stacked.shape == prev.shape
        assert np.array_equal(stacked, alone)


class TestWeakConvergence:
    def test_variance_bias_shrinks_linearly_with_the_step(self, params):
        # exact discrete second-moment recursion vs the continuous-time value
        target = solve_equilibrium(
            params, "ee", TimeGrid.from_horizon(params.T, 5)
        ).state_variance[-1]
        biases = []
        for n in (5, 50, 500):
            g = TimeGrid.from_horizon(params.T, n)
            pol = ne_policy(params, g)
            var = discrete_moments(
                params, g, pol.m_hat, pol.sigma2, np.full(n + 1, params.xi_mean)
            )[1]
            biases.append(abs(var[-1] - target))
        assert biases[0] > biases[1] > biases[2]
        # first-order scheme: one decade of refinement buys about one decade
        assert biases[0] / biases[1] == pytest.approx(10.0, rel=0.35)
        assert biases[1] / biases[2] == pytest.approx(10.0, rel=0.35)


class TestDeterminismAndAlignment:
    def test_sample_rewards_bitwise_reproducible(self, params, grid):
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        a = sample_rewards(params, grid, policy, mf, 50_000, rng.substream(1, 2))
        b = sample_rewards(params, grid, policy, mf, 50_000, rng.substream(1, 2))
        np.testing.assert_array_equal(a, b)

    def test_chunk_boundary_does_not_change_the_first_chunk(self, params, grid):
        # one path past a full chunk starts a new chunk; the first 2^14
        # rewards keep their bits
        policy = ne_policy(params, grid)
        mf = np.linspace(0.1, 0.3, grid.n_steps + 1)
        n = 1 << 14
        exact = sample_rewards(params, grid, policy, mf, n, rng.substream(12, rng.TRAJECTORY))
        over = sample_rewards(params, grid, policy, mf, n + 1, rng.substream(12, rng.TRAJECTORY))
        assert over[:n].tobytes() == exact.tobytes()

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            PolicyParams(m_hat=0.5, sigma2=np.array([0.3, 0.0, 0.3, 0.3, 0.3]))
        with pytest.raises(DomainError):
            PolicyParams(m_hat=0.5, sigma2=np.array([0.3, -0.1, 0.3, 0.3, 0.3]))

    def test_mean_field_validation(self, params, grid):
        policy = ne_policy(params, grid)
        evaluator = PayoffEvaluator(params, grid)
        for path in (np.zeros(4), np.zeros((1, grid.n_steps + 1))):
            with pytest.raises(ParameterError, match="mean path has shape"):
                sample_rewards(params, grid, policy, path, 2, rng.substream(0, 1))
        # the evaluator scores stacks of paths, so only the length is wrong
        for path in (np.zeros(4), np.zeros((1, 4))):
            with pytest.raises(ParameterError, match="mean path has shape"):
                evaluator.rel_error(policy.m_hat, policy.sigma2, path)
        path = np.zeros(grid.n_steps + 1)
        for value in (np.nan, np.inf):
            path[2] = value
            with pytest.raises(ParameterError, match="mean path values must be finite"):
                sample_rewards(params, grid, policy, path, 2, rng.substream(0, 1))
            with pytest.raises(ParameterError, match="mean path values must be finite"):
                evaluator.rel_error(policy.m_hat, policy.sigma2, path)


def sequential_rollout_chunks(params, grid, policy, mean_field, n_paths, stream, states=None):
    """The chunk loop as it was before its draws moved to a helper thread:
    the reference the threaded loop must reproduce bit for bit."""
    if len(policy.sigma2) != grid.n_steps:
        raise ParameterError(
            f"policy has {len(policy.sigma2)} variance entries, grid needs {grid.n_steps}"
        )
    path = check_path(mean_field, grid)
    rewards = np.empty(n_paths)
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        x0, dW = draw_noise(stream, params, grid.dt, stop - start, grid.n_steps)
        rewards[start:stop] = rollout(
            params, grid.dt, path, policy.m_hat, policy.sigma2, x0, dW,
            None if states is None else states[start:stop],
        )
    return rewards


def within(seconds, fn):
    """fn() on a thread joined with a timeout: a deadlock fails the test
    instead of hanging it. Returns fn's result or raises its exception."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestChunkLoopHelperThread:
    """The next chunk is drawn on a helper thread while the caller rolls out
    the current one and runs ``on_chunk``; the GIL is handed over as often
    as the interpreter allows, to shake out any dependence on timing."""

    @pytest.mark.parametrize("n_paths", [1, _CHUNK - 1, _CHUNK + 1, 5 * _CHUNK + 3])
    def test_matches_the_sequential_loop(self, params, n_paths):
        grid = TimeGrid.from_horizon(params.T, 50)
        policy = ne_policy(params, grid)
        mf = np.linspace(0.1, 0.3, grid.n_steps + 1)
        chunks = []

        def on_chunk(start, rewards):
            # Python work holding the GIL while the next chunk is drawn
            chunks.append((start, len(rewards), sum(float(r) for r in rewards[:2000])))

        threads = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rewards = within(60, lambda: sample_rewards(
                params, grid, policy, mf, n_paths, rng.substream(12, rng.TRAJECTORY), on_chunk
            ))
            states = within(60, lambda: simulate_states(
                params, grid, policy, mf, n_paths, rng.substream(11, rng.TRAJECTORY)
            ))
        finally:
            sys.setswitchinterval(interval)
        assert threading.enumerate() == threads
        ref_rewards = sequential_rollout_chunks(
            params, grid, policy, mf, n_paths, rng.substream(12, rng.TRAJECTORY)
        )
        ref_states = np.empty_like(states)
        sequential_rollout_chunks(
            params, grid, policy, mf, n_paths, rng.substream(11, rng.TRAJECTORY), ref_states
        )
        assert rewards.tobytes() == ref_rewards.tobytes()
        assert states.tobytes() == ref_states.tobytes()
        # every chunk once, in path order, with the rewards of its paths
        assert [(start, n) for start, n, _ in chunks] == [
            (start, min(_CHUNK, n_paths - start)) for start in range(0, n_paths, _CHUNK)
        ]
        assert [total for *_, total in chunks] == [
            sum(float(r) for r in ref_rewards[start:start + _CHUNK][:2000])
            for start in range(0, n_paths, _CHUNK)
        ]

    def test_an_on_chunk_error_stops_the_helper(self, params):
        grid = TimeGrid.from_horizon(params.T, 50)
        policy = ne_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        seen = []

        def on_chunk(start, rewards):
            seen.append(start)
            if start:
                raise OSError("disk full")

        threads = threading.enumerate()
        with pytest.raises(OSError, match="disk full"):
            within(60, lambda: sample_rewards(
                params, grid, policy, mf, 4 * _CHUNK, rng.substream(0, 1), on_chunk
            ))
        assert seen == [0, _CHUNK]
        assert threading.enumerate() == threads
