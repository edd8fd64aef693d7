import math

import numpy as np
import pytest

from lqmfg import (
    LearnerConfig,
    ParameterError,
    PayoffEvaluator,
    PolicyParams,
    discrete_moments,
    discretize_policy,
    equilibrium_policy,
    estimate_gradient,
    gradient_step,
    reference_policy,
)
from lqmfg import learner, rng
from lqmfg.learner import (
    LearnerDivergence, _initial_policy, _on_sphere, _sphere_average, inner_loop,
)
from lqmfg.learner import run as learner_run

from conftest import draw_noise, mc_reward


# the seed of the single-arm helpers below unless a test passes its own
SEED = 7


def small_cfg(**overrides):
    base = dict(n_outer=2, n_inner=10, n_perturbations=8, radius=0.05, step_size=0.02)
    base.update(overrides)
    return LearnerConfig(**base)


def run_one(params, grid, cfg, seed=SEED):
    """The learner's run of a stack of one arm: its (K, I + 1, 1 + N)
    policies and its (K + 1, N + 1) mean paths."""
    steps, mean_paths = learner_run(params, grid, cfg, [params.lambda_se], [seed])
    return steps[0], mean_paths[0]


def first_start(grid, cfg, seed, outer_index=0):
    """The ``_initial_policy`` row of the (seed, INITIAL_POLICY, outer_index)
    substream."""
    stream = rng.substream(seed, rng.INITIAL_POLICY, outer_index)
    return _initial_policy(grid.n_steps, stream, cfg.sigma_floor)


def vector(policy):
    """The (1 + N) policy row the learner works on: gain, then variances."""
    return np.concatenate(([policy.m_hat], policy.sigma2))


def inner_one(params, grid, mean_field, cfg, initial=None, seed=SEED, outer_index=0):
    """One best-response round of a stack of one arm from the (1 + N) row
    ``initial``, by default the ``first_start`` of the round's substream:
    (final policy row, the (I + 1, 1 + N) policies before every step and
    after the last)."""
    if initial is None:
        initial = first_start(grid, cfg, seed, outer_index)
    steps = inner_loop(
        params, grid, mean_field[None], cfg, np.array([params.lambda_se]), [seed],
        outer_index, initial[None],
    )
    return steps[0, -1], steps[0]


def step_draws(params, grid, cfg, stream):
    """One arm's draws of one step from its substream, by hand: the n
    directions, then ``draw_noise``'s initial state and Brownian path."""
    u = stream.standard_normal((cfg.n_perturbations, grid.n_steps + 1))
    U = cfg.radius * u / np.linalg.norm(u, axis=1, keepdims=True)
    return (U, *draw_noise(stream, params, grid.dt, 1, grid.n_steps))


def estimate_one(params, grid, policy, mean_field, cfg, stream):
    """The (1, 1 + N) gradient estimate of a stack of one arm."""
    U, x0, dW = step_draws(params, grid, cfg, stream)
    return estimate_gradient(
        params, grid, vector(policy)[None], mean_field[:, None, None], cfg,
        np.array([params.lambda_se]), U[None], x0[None], dW[None],
    )


class TestSampleSphere:
    def test_norm_is_the_radius(self):
        stream = rng.substream(0, 1)
        for dim in (1, 2, 6, 11):
            u = _on_sphere(stream.standard_normal((5, dim)), 0.01)
            np.testing.assert_allclose(np.linalg.norm(u, axis=1), 0.01, rtol=1e-12)

    def test_dimension_one_is_a_fair_sign(self):
        stream = rng.substream(0, 2)
        draws = _on_sphere(stream.standard_normal((4000, 1)), 2.0)[:, 0]
        assert set(np.round(np.abs(draws), 12)) == {2.0}
        assert 0.45 < np.mean(draws > 0) < 0.55

    def test_empirical_mean_vanishes(self):
        stream = rng.substream(0, 3)
        r = 0.7
        draws = _on_sphere(stream.standard_normal((1_000_000, 6)), r)
        bound = 4.0 / math.sqrt(1_000_000) * r
        assert np.all(np.abs(draws.mean(axis=0)) < bound)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            _on_sphere(np.ones((1, 0)), 1.0)
        with pytest.raises(ParameterError):
            _on_sphere(np.ones((1, 3)), 0.0)


class TestSphereGradientEstimate:
    """The sphere draws and the averaging step of ``estimate_gradient``, on
    20 000 estimates of known functions."""

    def test_constant_function_averages_to_zero(self):
        # the leave-one-out baseline cancels a constant integrand exactly,
        # in every estimate and not only on average
        stream = rng.substream(1, 1)
        U = _on_sphere(stream.standard_normal((20_000, 4, 3)), 0.1)
        est = _sphere_average(U, np.full((20_000, 4), 5.0), 0.1)
        np.testing.assert_array_equal(est, 0.0)

    def test_linear_function_mean_is_gradient_over_dim(self):
        # E[U U^T] = (r^2 / dim) I on the sphere, so the estimate averages
        # to c / dim on f(x) = <c, x>; the leave-one-out baseline leaves the
        # mean untouched because each baseline is independent of its U
        c = np.array([2.0, -1.0, 0.5, 3.0])
        center = np.zeros(4)
        stream = rng.substream(1, 2)
        U = _on_sphere(stream.standard_normal((20_000, 4, 4)), 0.2)
        est = _sphere_average(U, (center + U) @ c, 0.2)
        stderr = est.std(axis=0, ddof=1) / math.sqrt(len(est))
        np.testing.assert_array_less(np.abs(est.mean(axis=0) - c / 4), 5 * stderr)

    def test_loo_needs_two_points(self):
        U = _on_sphere(rng.substream(1, 3).standard_normal((1, 3)), 0.1)
        with pytest.raises(ParameterError):
            _sphere_average(U, np.zeros(1), 0.1)


class TestEstimateGradient:
    def test_same_substream_identical(self, params, grid):
        policy = reference_policy(params, grid)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        cfg = small_cfg()
        a = estimate_one(params, grid, policy, mf, cfg, rng.substream(3, 1))
        b = estimate_one(params, grid, policy, mf, cfg, rng.substream(3, 1))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 1 + grid.n_steps)

    def test_floor_applies_to_perturbed_evaluations(self, params, grid):
        # variances sitting at the floor stay evaluable under perturbation
        cfg = small_cfg(radius=0.5)
        policy = PolicyParams(m_hat=0.5, sigma2=np.full(5, cfg.sigma_floor))
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        out = estimate_one(params, grid, policy, mf, cfg, rng.substream(3, 3))
        assert np.all(np.isfinite(out))


class TestGradientStep:
    def test_zero_estimate_is_identity(self, grid):
        policy = np.concatenate(([0.5], np.linspace(0.4, 0.2, 5)))
        out = gradient_step(policy, np.zeros(6), small_cfg())
        np.testing.assert_array_equal(out, policy)

    def test_projection_to_the_floor(self):
        cfg = small_cfg()
        policy = np.concatenate(([0.5], np.full(5, 0.01)))
        estimate = np.concatenate(([0.0], np.full(5, -10.0)))
        out = gradient_step(policy, estimate, cfg)
        np.testing.assert_array_equal(out[1:], np.full(5, cfg.sigma_floor))

    def test_oracle_gradient_ascends_the_expected_reward(self, params, grid):
        # oracle direction: central differences of the exact expected
        # reward; ten steps must increase it
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        cfg = small_cfg(step_size=0.05)

        def payoff(vec):
            return discrete_moments(params, grid, vec[0], vec[1:], mf)[2]

        def oracle_gradient(vec):
            out = np.empty_like(vec)
            h = 1e-4
            for i in range(len(vec)):
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                out[i] = (payoff(up) - payoff(dn)) / (2 * h)
            return out

        policy = np.concatenate(([0.4], np.full(5, 0.45)))
        start = payoff(policy)
        for _ in range(10):
            policy = gradient_step(policy, oracle_gradient(policy), cfg)
        assert payoff(policy) > start


class TestInnerLoop:
    def test_no_steps_returns_the_initializer(self, params, grid):
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        cfg = small_cfg(n_inner=0)
        expected = first_start(grid, cfg, SEED)
        policy, records = inner_one(params, grid, mf, cfg, initial=expected.copy())
        np.testing.assert_array_equal(policy, expected)
        assert len(records) == 1

    def test_improves_on_the_initializer(self, params, grid):
        # against the frozen equilibrium mean path, one best-response round
        # should beat its own random initializer almost always
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        wins = 0
        evaluator = PayoffEvaluator(params, grid)
        for seed in range(20):
            _, steps = inner_one(params, grid, mf, LearnerConfig(), seed=seed)
            first, last = (evaluator.rel_error(row[0], row[1:], mf) for row in steps[[0, -1]])
            if last <= first:
                wins += 1
        assert wins >= 18


    def test_divergence_names_the_step_and_the_last_finite_policy(self, params, grid):
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        cfg = LearnerConfig(step_size=50.0, n_inner=200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LearnerDivergence) as info:
                inner_one(params, grid, mf, cfg, seed=0, outer_index=2)
            exc = info.value
            assert exc.outer == 2 and 0 < exc.inner < 200
            assert f"k=2, inner step i={exc.inner}" in str(exc)
            # the last finite policy is the one the first exc.inner steps reach
            reached, _ = inner_one(
                params, grid, mf, LearnerConfig(step_size=50.0, n_inner=exc.inner),
                seed=0, outer_index=2,
            )
        np.testing.assert_array_equal(reached, exc.last_policy)
        assert np.isfinite(exc.last_policy).all()


    def test_draws_ahead_across_a_block_boundary(self, params, grid):
        # three arms on two seeds for one block and three steps more: every
        # step rebuilt from its own substream, arm by arm, is the learner's
        cfg = small_cfg(n_inner=learner._BLOCK + 3)
        lambdas, seeds = np.array([1.0, 0.0, 3.0]), [4, 9, 4]
        mean_paths = np.linspace(0.0, 0.2, 3 * (grid.n_steps + 1)).reshape(3, -1)
        initial = np.array([first_start(grid, cfg, seed, 1) for seed in seeds])
        steps = inner_loop(params, grid, mean_paths, cfg, lambdas, seeds, 1, initial)
        assert steps.shape == (3, cfg.n_inner + 1, grid.n_steps + 1)
        np.testing.assert_array_equal(steps[:, 0], initial)
        expected = [steps[:, 0]]
        for i in range(cfg.n_inner):
            U, x0, dW = (np.array(parts) for parts in zip(*(
                step_draws(params, grid, cfg, rng.substream(seed, rng.PERTURBATION, 1, i))
                for seed in seeds
            )))
            estimates = estimate_gradient(
                params, grid, expected[-1], mean_paths.T[:, :, None], cfg, lambdas, U, x0, dW
            )
            expected.append(gradient_step(expected[-1], estimates, cfg))
        np.testing.assert_array_equal(np.stack(expected, axis=1), steps)

    def test_one_re_keyed_philox_draws_every_step_substream(self, params, grid):
        # the block's one Philox per seed, re-keyed per step, leaves nothing
        # of one step's stream in the next: seeds of one to three words
        cfg = small_cfg()
        seeds, steps = [2**64 + 3, 0, 2**32 + 5], range(396, 400)
        draws = learner._draw_block(params, grid, cfg, seeds, 9, steps)
        for i, *step in zip(steps, *draws):
            for j, seed in enumerate(seeds):
                stream = rng.substream(seed, rng.PERTURBATION, 9, i)
                for drawn, by_hand in zip(step, step_draws(params, grid, cfg, stream)):
                    np.testing.assert_array_equal(drawn[j], by_hand.reshape(drawn[j].shape))

    def test_a_zero_direction_is_a_divergence(self, params, grid, monkeypatch):
        # not redrawn: its NaN estimate makes the step non-finite
        on_sphere = learner._on_sphere

        def zeroed(u, radius):
            u[4, 0, 2] = 0.0  # step 4, seed 0, direction 2
            return on_sphere(u, radius)

        monkeypatch.setattr(learner, "_on_sphere", zeroed)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        with np.errstate(invalid="ignore"), pytest.raises(LearnerDivergence) as info:
            inner_one(params, grid, mf, small_cfg())
        assert (info.value.arm, info.value.outer, info.value.inner) == (0, 0, 4)


class TestRun:
    def test_minimal_loop(self, params, grid):
        cfg = small_cfg(n_outer=1, n_inner=0)
        steps, paths = run_one(params, grid, cfg)
        last = steps[-1, -1]
        np.testing.assert_array_equal(last, first_start(grid, cfg, SEED))
        assert steps.shape == (1, 1, grid.n_steps + 1)
        mf0 = np.zeros(grid.n_steps + 1)
        np.testing.assert_array_equal(
            paths[-1], discrete_moments(params, grid, last[0], last[1:], mf0)[0],
        )

    def test_trace_shape(self, params, grid):
        cfg = small_cfg(n_outer=3, n_inner=7)
        steps, paths = run_one(params, grid, cfg)
        assert steps.shape == (3, 7 + 1, grid.n_steps + 1)
        assert paths.shape == (3 + 1, grid.n_steps + 1)
        # every run starts from the mean path 0, and each round from the
        # policy the one before it ended at
        np.testing.assert_array_equal(paths[0], np.zeros(grid.n_steps + 1))
        np.testing.assert_array_equal(steps[1:, 0], steps[:-1, -1])

    def test_run_is_deterministic(self, params, grid):
        cfg = small_cfg()
        steps1, paths1 = run_one(params, grid, cfg)
        steps2, paths2 = run_one(params, grid, cfg)
        np.testing.assert_array_equal(steps1, steps2)
        np.testing.assert_array_equal(paths1, paths2)

    def test_variances_respect_the_floor_throughout(self, params, grid):
        cfg = small_cfg(n_outer=2, n_inner=50, step_size=0.5, radius=0.05)
        steps, _ = run_one(params, grid, cfg)
        assert np.all(steps[..., 1:] >= cfg.sigma_floor)

    def test_every_arm_starts_at_its_own_seeds_draw(self, params, grid):
        # two seeds shared unevenly: each arm's round 0 starts at the draw of
        # its own seed's substream, and arms on one seed start alike
        cfg = small_cfg(n_outer=1, n_inner=2)
        seeds = [3, 4, 3, 4, 4]
        steps, _ = learner_run(params, grid, cfg, [0.0, 1.0, 3.0, 1.0, 3.0], seeds)
        for arm, seed in zip(steps, seeds):
            np.testing.assert_array_equal(arm[0, 0], first_start(grid, cfg, seed))

    def test_equilibrium_start_stays_at_equilibrium(self, params, grid):
        # each round starts at the discretized equilibrium policy, mean path
        # already at the fixed point: the exact error must stay at the noise
        # level of a payoff estimate (taken as 3x the standard error of 4096
        # sampled paths) for three fictitious-play rounds
        ne = discretize_policy(equilibrium_policy(params, "se"), grid)
        evaluator = PayoffEvaluator(params, grid)
        cfg = LearnerConfig(n_outer=3)
        mf = np.full(grid.n_steps + 1, params.xi_mean)
        _, stderr = mc_reward(params, grid, ne, mf, 4096, seed=3)
        noise_scale = 3 * stderr / abs(evaluator.reference_payoff)
        policy = vector(ne)
        for k in range(cfg.n_outer):
            policy, _ = inner_one(params, grid, mf, cfg, initial=policy, seed=11, outer_index=k)
            assert evaluator.rel_error(policy[0], policy[1:], mf) <= noise_scale
            mf = discrete_moments(params, grid, policy[0], policy[1:], mf)[0]


class TestLockstepDivergence:
    """The first step, or mean-field update, that makes any arm of a stack
    non-finite stops the whole stack and names the lowest-index arm it made
    non-finite."""

    # step 3 on 2 rounds of 20 steps: run alone, (lambda_se, seed) (1, 0)
    # diverges at k=1, i=11; (0, 1) at k=0, i=18; (1, 1) at k=0, i=12;
    # (0, 5) at k=0, i=11; (1, 2) does not diverge
    cfg = LearnerConfig(n_outer=2, n_inner=20, step_size=3.0)

    def run_stack(self, params, grid, cfg, arms):
        lambdas, seeds = zip(*arms)
        return learner_run(params, grid, cfg, lambdas, seeds)

    def counted_sizes(self, monkeypatch):
        """The stack size of every estimate_gradient call from now on."""
        sizes = []
        estimate = learner.estimate_gradient

        def counted(params, grid, policies, *args):
            sizes.append(len(policies))
            return estimate(params, grid, policies, *args)

        monkeypatch.setattr(learner, "estimate_gradient", counted)
        return sizes

    def test_first_arm_to_diverge_is_named_lower_index_on_a_tie(self, params, grid):
        for arms, failing, expected in [
            # (1, 1) diverges first in time: it stops (1, 0), which would
            # diverge only in round 1, and (0, 1), which would at i=18
            ([(1.0, 0), (0.0, 1), (1.0, 1), (1.0, 2)], 2, (2, 0, 12)),
            # two arms that diverge at the same step: the lower index is named
            ([(1.0, 1), (1.0, 1)], 0, (0, 0, 12)),
        ]:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(LearnerDivergence) as alone:
                    self.run_stack(params, grid, self.cfg, arms[failing:failing + 1])
                with pytest.raises(LearnerDivergence) as together:
                    self.run_stack(params, grid, self.cfg, arms)
            exc = together.value
            assert (exc.arm, exc.outer, exc.inner) == expected
            assert (alone.value.outer, alone.value.inner) == expected[1:]
            assert str(exc) == str(alone.value)
            np.testing.assert_array_equal(exc.last_policy, alone.value.last_policy)

    def test_no_arm_steps_past_the_first_divergence(self, params, grid, monkeypatch):
        # no arm takes a step past the divergence, the arm before it included
        sizes = self.counted_sizes(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LearnerDivergence) as info:
                self.run_stack(params, grid, self.cfg, [(1.0, 2), (0.0, 5), (1.0, 2)])
        assert (info.value.arm, info.value.outer, info.value.inner) == (1, 0, 11)
        assert sizes == [3] * 12

    @pytest.mark.parametrize("n_inner, step, arms, blown, expected, sizes", [
        # step 10 on 30 steps: run alone, (lambda_se, seed) (0, 0) ends round
        # 0 with a gain whose mean-field update overflows; (1, 1) diverges
        # at k=0, i=10, within that round, so it stops the stack first
        (30, 10.0, [(0.0, 0), (1.0, 1)], 0, (1, 0, 10), [2] * 11),
        # the class's step 3 on 20 steps: (0, 8) overflows the update after
        # round 0 between two arms that never diverge; the stack stops there
        (20, 3.0, [(1.0, 2), (0.0, 8), (0.0, 4)], 1, (1, 0, None), [3] * 20),
    ], ids=["first_arm", "middle_arm"])
    def test_a_blown_up_mean_field_update_is_a_divergence_in_stack_order(
        self, params, grid, monkeypatch, n_inner, step, arms, blown, expected, sizes
    ):
        cfg = LearnerConfig(n_outer=2, n_inner=n_inner, step_size=step)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LearnerDivergence) as update:
                self.run_stack(params, grid, cfg, arms[blown:blown + 1])
            with pytest.raises(LearnerDivergence) as alone:
                self.run_stack(params, grid, cfg, arms[expected[0]:expected[0] + 1])
        # run alone, the blown arm fails in the update after round 0, from
        # the finite but huge gain the round ended at
        assert (update.value.outer, update.value.inner) == (0, None)
        assert str(update.value) == (
            "learner diverged at outer round k=0: the mean-field update after the round "
            "made the mean path non-finite"
        )
        policy = update.value.last_policy
        assert np.isfinite(policy).all() and abs(policy[0]) > 1e50
        seen = self.counted_sizes(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LearnerDivergence) as together:
                self.run_stack(params, grid, cfg, arms)
        assert seen == sizes
        exc = together.value
        assert (exc.arm, exc.outer, exc.inner) == expected
        assert str(exc) == str(alone.value)
        np.testing.assert_array_equal(exc.last_policy, alone.value.last_policy)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ParameterError):
            LearnerConfig(n_outer=0)
        with pytest.raises(ParameterError):
            LearnerConfig(n_inner=-1)
        with pytest.raises(ParameterError):
            LearnerConfig(radius=0.0)
        with pytest.raises(ParameterError):
            LearnerConfig(step_size=-0.1)
        with pytest.raises(ParameterError, match="leave-one-out"):
            LearnerConfig(n_perturbations=1)

    def test_zero_inner_steps_allowed(self):
        assert LearnerConfig(n_inner=0).n_inner == 0
