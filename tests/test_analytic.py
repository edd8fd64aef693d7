"""Closed-form equilibrium objects against independent oracles.

Frozen oracle values were computed by standalone scripts: the value
curvature by backward RK4 integration of its linear ODE at step 1e-6, the
value offsets by composite trapezoid on 1e6-node grids (with the nested
variance integral done by cumulative trapezoid on the same nodes).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from lqmfg import (
    DomainError,
    GaussianFeedbackPolicy,
    ParameterError,
    TimeGrid,
    discretize_policy,
    equilibrium_policy,
    feedback_policy_payoff,
    game_value,
    riccati_coefficient,
    simulate_states,
    solve_equilibrium,
)
from lqmfg import rng
from lqmfg.analytic import (
    _moment_paths,
    _refined_times,
    _state_rates,
    constant_fn,
    decay_rate,
    step_fn,
)

from conftest import make_params, mc_reward, random_params

# Backward-ODE oracle at t=0 (RK4, step 1e-6), reference coefficients.
ETA_SE_0_ORACLE = 1.2935973713488516
# Same oracle for the enhanced game at lambda_se = lambda_ce = 1.
ETA_EE_0_ORACLE = 1.0569187114449883


def backward_ode_oracle(params, rate, h=1e-5):
    """Integrate eta' = rate*eta - Q backward from eta(T) = Q_bar with RK4.

    At step 1e-5 the integrator error is far below 1e-12; the frozen module
    constants above were produced by the same scheme at step 1e-6.
    """
    n = round(params.T / h)
    eta = params.Q_bar

    def f(e):
        return rate * e - params.Q

    for _ in range(n):
        k1 = f(eta)
        k2 = f(eta - h / 2 * k1)
        k3 = f(eta - h / 2 * k2)
        k4 = f(eta - h * k3)
        eta -= h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return eta


def fine_trapezoid_offset_oracle(params, game, n_nodes=1_000_001):
    """Value offset at t=0 from 1e6-node trapezoid quadrature (both terms of
    the Shannon variant; the enhanced variant adds the curvature-variance
    integral with the cumulative-trapezoid variance path on the same nodes)."""
    lam = params.lambda_se + (params.lambda_ce if game == "ee" else 0.0)
    rho = decay_rate(params, game)
    zs = np.linspace(0.0, params.T, n_nodes)
    eta = params.Q_bar * np.exp(-rho * (params.T - zs)) + (params.Q / rho) * (
        1.0 - np.exp(-rho * (params.T - zs))
    )
    out = lam / 2 * math.log(2 * math.pi * lam / params.D**2) * params.T
    out -= lam / 2 * np.trapezoid(np.log(eta), zs)
    if game == "ee" and params.lambda_ce > 0:
        ratio = lam / params.lambda_se
        rate = 2 * -(params.A + ratio * params.B**2 / params.D**2) + (
            params.B / params.D * ratio
        ) ** 2
        integrand = np.exp(-rate * zs) * lam / eta
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(zs)))
        )
        kappa = np.exp(rate * zs) * (params.xi_var + cum)
        out += (
            (params.B**2 / (2 * params.D**2))
            * params.lambda_ce * lam / params.lambda_se**2
            * np.trapezoid(eta * kappa, zs)
        )
    return out
# 1e6-node trapezoid oracle for the Shannon offset at t=0, lambda_se=1.
GAMMA_SE_0_ORACLE = -0.0008433335587270142
# Nested-quadrature oracle for the enhanced offset, lambda_se=lambda_ce=1,
# initial variance 0.99 (with the derivation-consistent mean-reversion
# constant -(A + ratio * B^2/D^2); see _state_rates).
GAMMA_EE_0_ORACLE = 0.3654038340884465
# Composition of the two oracles above: -(eta_0/2) * 0.99 + gamma_0.
GAME_VALUE_SE_ORACLE = -0.6411740323764152


class TestRiccatiCoefficient:
    def test_terminal_value_is_terminal_weight(self, params):
        assert riccati_coefficient(params, params.T, "se") == 2.0
        assert riccati_coefficient(params, params.T, "ee") == 2.0

    def test_matches_backward_ode_oracle(self, params):
        oracle = backward_ode_oracle(params, decay_rate(params, "se"))
        assert oracle == pytest.approx(ETA_SE_0_ORACLE, abs=1e-9)
        assert riccati_coefficient(params, 0.0, "se") == pytest.approx(oracle, abs=1e-6)
        # closed-form anchor: 2 e^{-0.625} + 0.48 (1 - e^{-0.625})
        anchor = 2 * math.exp(-0.625) + 0.48 * (1 - math.exp(-0.625))
        assert riccati_coefficient(params, 0.0, "se") == pytest.approx(anchor, rel=1e-14)

    def test_ode_fixed_point_is_constant(self):
        p = make_params(Q_bar=2.0, Q=2.0 * 6.25)  # Q = Q_bar * (2A + B^2/D^2)
        for t in np.linspace(0, p.T, 7):
            assert riccati_coefficient(p, t, "se") == pytest.approx(2.0, rel=1e-14)

    def test_domain_errors(self, params):
        with pytest.raises(DomainError):
            riccati_coefficient(params, -0.01, "se")
        with pytest.raises(DomainError):
            riccati_coefficient(params, params.T + 0.01, "ee")
        # game_value names a NaN time; the coefficient must too
        with pytest.raises(DomainError):
            riccati_coefficient(params, math.nan, "se")
        with pytest.raises(DomainError):
            riccati_coefficient(params, np.array([0.0, math.nan]), "ee")

    def test_domain_error_names_the_first_time_outside(self, params):
        with pytest.raises(DomainError, match=r"^time 0\.2 outside the horizon \[0, 0\.1\]$"):
            riccati_coefficient(params, [0.05, 0.2, -1.0])
        with pytest.raises(DomainError, match=r"^time nan outside the horizon"):
            riccati_coefficient(params, np.array([0.0, math.nan]), "ee")
        # a numpy scalar is named as a plain float, not as np.float64(...)
        with pytest.raises(DomainError, match=r"^time -0\.5 outside"):
            game_value(params, "se", np.float64(-0.5), TimeGrid.from_horizon(params.T, 5))

    def test_enhanced_reduces_to_shannon_without_cross_temperature(self, params):
        ts = np.linspace(0, params.T, 11)
        se = riccati_coefficient(params, ts, "se")
        ee = riccati_coefficient(params, ts, "ee")
        np.testing.assert_allclose(ee, se, rtol=1e-12)

    def test_enhanced_matches_ode_oracle(self):
        p = make_params(lambda_ce=1.0)
        oracle = backward_ode_oracle(p, decay_rate(p, "ee"))
        assert oracle == pytest.approx(ETA_EE_0_ORACLE, abs=1e-9)
        assert riccati_coefficient(p, 0.0, "ee") == pytest.approx(oracle, abs=1e-6)

    def test_positive_on_horizon(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            p = random_params(gen)
            ts = np.linspace(0, p.T, 50)
            assert np.all(riccati_coefficient(p, ts, "se") > 0)
            assert np.all(riccati_coefficient(p, ts, "ee") > 0)

    def test_long_horizon_limit(self):
        # far from the terminal time the coefficient settles at Q / rate
        p = make_params(T=10.0)
        assert decay_rate(p, "se") == pytest.approx(6.25)
        assert riccati_coefficient(p, 0.0, "se") == pytest.approx(0.48, abs=1e-6)


def value_offsets(params, grid, game):
    """The value offset at every grid time (the ``solve_equilibrium`` column)."""
    return solve_equilibrium(params, game, grid).value_offset


class TestValueOffset:
    def test_zero_at_terminal_time(self, params, grid):
        assert value_offsets(params, grid, "se")[-1] == 0.0
        assert value_offsets(params, grid, "ee")[-1] == 0.0

    def test_matches_fine_quadrature_oracle(self, params, grid):
        oracle = fine_trapezoid_offset_oracle(params, "se")
        assert oracle == pytest.approx(GAMMA_SE_0_ORACLE, abs=1e-12)
        assert value_offsets(params, grid, "se")[0] == pytest.approx(oracle, abs=1e-6)

    def test_null_case_vanishes(self, grid):
        # log weight 1 and a constant unit curvature kill both terms
        lam = 4.0 / (2.0 * math.pi)  # 2*pi*lam / D^2 = 1 for D = 2
        p = make_params(Q_bar=1.0, Q=6.25, lambda_se=lam)
        assert abs(value_offsets(p, grid, "se")[0]) < 1e-12

    def test_enhanced_reduces_to_shannon(self, params, grid):
        # every grid time, 0.04 and 0.1 among them
        se = value_offsets(params, grid, "se")
        ee = value_offsets(params, grid, "ee")
        assert np.all(np.abs(ee - se) <= 1e-9)

    def test_enhanced_matches_nested_quadrature_oracle(self, grid):
        p = make_params(lambda_ce=1.0)
        oracle = fine_trapezoid_offset_oracle(p, "ee")
        assert oracle == pytest.approx(GAMMA_EE_0_ORACLE, abs=1e-11)
        assert value_offsets(p, grid, "ee")[0] == pytest.approx(oracle, abs=1e-5)


class TestEquilibriumPolicy:
    def test_gain_is_control_to_noise_ratio(self, params):
        assert equilibrium_policy(params, "se").mean_coeff == 0.75

    def test_terminal_variance(self, params):
        pol = equilibrium_policy(params, "se")
        assert pol.variance_fn(params.T) == pytest.approx(1.0 / 8.0, rel=1e-14)

    def test_variance_decreasing_when_running_weight_small(self, params, grid):
        # Q / rate < Q_bar makes the curvature increase, so variance decreases
        assert params.Q / decay_rate(params, "se") < params.Q_bar
        var = equilibrium_policy(params, "se").variance_fn(np.linspace(0, params.T, 30))
        assert np.all(np.diff(var) < 0)

    def test_enhanced_reduces_to_shannon(self, params):
        se = equilibrium_policy(params, "se")
        ee = equilibrium_policy(params, "ee")
        assert ee.mean_coeff == se.mean_coeff
        ts = np.linspace(0, params.T, 9)
        np.testing.assert_array_equal(ee.variance_fn(ts), se.variance_fn(ts))
        np.testing.assert_array_equal(ee.reference_mean_fn(ts), se.reference_mean_fn(ts))

    def test_enhanced_gain(self):
        p = make_params(lambda_se=1.0, lambda_ce=1.0)
        assert equilibrium_policy(p, "ee").mean_coeff == pytest.approx(1.5, rel=1e-14)

    def test_variance_increases_with_cross_temperature(self):
        s = 0.05
        values = [
            equilibrium_policy(make_params(lambda_ce=lc), "ee").variance_fn(s)
            for lc in (0.0, 0.5, 1.0, 2.0)
        ]
        assert np.all(np.diff(values) > 0)

    def test_zero_temperature_rejected(self):
        with pytest.raises(ParameterError):
            equilibrium_policy(make_params(lambda_se=0.0), "se")


class TestEquilibriumStateRates:
    def test_reference_values(self, params):
        drift, feedback = _state_rates(params, 1.0)  # lambda_ce = 0: ratio 1
        assert drift == pytest.approx(-4.25, rel=1e-14)
        assert feedback == pytest.approx(2.25, rel=1e-14)

    def test_sign_structure(self):
        gen = np.random.default_rng(1)
        for _ in range(30):
            p = random_params(gen)
            drift, feedback = _state_rates(p, (p.lambda_se + p.lambda_ce) / p.lambda_se)
            assert drift < 0
            assert feedback > 0


class TestEquilibriumStateVariance:
    """The ``solve_equilibrium`` state-variance column, started at t = 0."""

    def test_no_time_elapsed(self, params, grid):
        assert solve_equilibrium(params, "ee", grid).state_variance[0] == pytest.approx(
            params.xi_var, rel=1e-12
        )

    def test_exploration_injects_variance(self, grid):
        p = make_params(xi_second_moment=0.1**2)  # deterministic start
        assert p.xi_var == 0.0
        assert np.all(solve_equilibrium(p, "ee", grid).state_variance[1:] > 0.0)

    def test_domain(self, params, grid):
        # a grid running past the horizon, and a value time past it
        with pytest.raises(DomainError):
            solve_equilibrium(params, "ee", TimeGrid(n_steps=5, dt=0.04))
        with pytest.raises(DomainError):
            game_value(params, "ee", 0.2, grid)

    def test_monte_carlo_oracle(self, params):
        # sample variance of the equilibrium dynamics on a fine grid
        fine = TimeGrid.from_horizon(params.T, 50)
        policy = discretize_policy(equilibrium_policy(params, "se"), fine)
        mean_field = np.full(fine.n_steps + 1, params.xi_mean)
        states = simulate_states(
            params, fine, policy, mean_field, 100_000, rng.substream(11, rng.TRAJECTORY)
        )
        x_T = states[:, -1]
        sample_var = x_T.var(ddof=1)
        centered = (x_T - x_T.mean()) ** 2
        se_var = centered.std(ddof=1) / np.sqrt(len(x_T))
        analytic = solve_equilibrium(params, "ee", fine).state_variance[-1]
        assert abs(analytic - sample_var) <= 3 * se_var


class TestGameValue:
    def test_deterministic_start_terminal_time(self, grid):
        p = make_params(xi_mean=0.1, xi_second_moment=0.1**2)
        assert game_value(p, "se", p.T, grid) == 0.0

    def test_composition_of_oracles(self, params, grid):
        assert game_value(params, "se", 0.0, grid) == pytest.approx(
            GAME_VALUE_SE_ORACLE, abs=2e-6
        )

    def test_variant_reduction(self, params, grid):
        assert game_value(params, "ee", 0.0, grid) == game_value(params, "se", 0.0, grid)

    def test_enhanced_value_monte_carlo_oracle(self):
        # independent route to the enhanced game value: simulate the
        # equilibrium population, rebuild the running reward with both
        # exploration bonuses, estimating the population variance inside the
        # cross term from the simulated cross-section itself
        p = make_params(lambda_ce=1.0)
        fine = TimeGrid.from_horizon(p.T, 50)
        pol = discretize_policy(equilibrium_policy(p, "ee"), fine)
        mf = np.full(fine.n_steps + 1, p.xi_mean)

        lam_total = p.lambda_se + p.lambda_ce
        slope2 = (lam_total / p.lambda_se * p.B / p.D**2) ** 2
        L = pol.sigma2  # the population's per-step action variance
        h_self = 0.5 * np.log(2 * math.pi * math.e * L)

        # population variance per step from a dedicated cross-section
        ref_states = simulate_states(p, fine, pol, mf, 100_000, rng.substream(17, 1))
        pop_var = ref_states[:, :-1].var(axis=0, ddof=1)
        del ref_states

        n_total, chunk = 400_000, 50_000
        total = 0.0
        total_sq = 0.0
        stream = rng.substream(17, 2)
        for _ in range(n_total // chunk):
            states = simulate_states(p, fine, pol, mf, chunk, stream)
            gaps = states[:, :-1] - p.xi_mean
            action_second_moment = slope2 * gaps**2 + L[None, :]
            h_cross = (
                0.5 * np.log(2 * math.pi * L)[None, :]
                + (action_second_moment + slope2 * pop_var[None, :])
                / (2 * L[None, :])
            )
            rewards = (
                (-0.5 * p.Q * gaps**2 + p.lambda_se * h_self[None, :]
                 + p.lambda_ce * h_cross) * fine.dt
            ).sum(axis=1)
            rewards += -0.5 * p.Q_bar * (states[:, -1] - p.xi_mean) ** 2
            total += rewards.sum()
            total_sq += (rewards**2).sum()
        mc = total / n_total
        stderr = math.sqrt((total_sq / n_total - mc**2) / n_total)
        gv = game_value(p, "ee", 0.0, fine)
        # 3 sigma plus a first-order time-step allowance; the resulting band
        # (about 0.03) is narrower than the 0.05 value shift that the
        # rejected mean-reversion form would produce in the variance path,
        # so this oracle discriminates the two forms
        assert abs(mc - gv) <= 3 * stderr + 0.5 * fine.dt


class TestFeedbackPolicyPayoff:
    def test_pinned_state_case(self, grid):
        # deterministic start on a constant mean path with unit-entropy
        # variance: the bonus vanishes and only the exploration-noise cost
        # remains, for which the variance ODE has a closed form
        m = 0.1
        p = make_params(xi_mean=m, xi_second_moment=m * m, lambda_se=1.0)
        sigma2 = 1.0 / (2.0 * math.pi * math.e)
        for m_hat in (0.3, 0.75):
            pol = GaussianFeedbackPolicy(
                mean_coeff=m_hat,
                variance_fn=constant_fn(sigma2),
                reference_mean_fn=constant_fn(m),
            )
            out = feedback_policy_payoff(p, pol, constant_fn(m), grid)
            assert abs(out.entropy) < 1e-12
            rate = -2.0 * (p.A + p.B * m_hat) + p.D**2 * m_hat**2
            source = p.D**2 * sigma2

            def var(s):
                return source * (np.exp(rate * s) - 1.0) / rate

            ts = np.linspace(0, p.T, 2001)
            expected = -0.5 * p.Q * np.trapezoid(var(ts), ts) - 0.5 * p.Q_bar * var(p.T)
            assert out.total == pytest.approx(expected, abs=1e-9)
            assert out.total < 0.0

    def test_equilibrium_policy_recovers_game_value(self, params, grid):
        pol = equilibrium_policy(params, "se")
        out = feedback_policy_payoff(params, pol, constant_fn(params.xi_mean), grid)
        assert out.total == pytest.approx(game_value(params, "se", 0.0, grid), abs=1e-6)

    def test_monte_carlo_oracle_at_equilibrium(self, params):
        fine = TimeGrid.from_horizon(params.T, 50)
        pol = equilibrium_policy(params, "se")
        mean, stderr = mc_reward(
            params, fine, discretize_policy(pol, fine),
            np.full(fine.n_steps + 1, params.xi_mean), 100_000, seed=23,
        )
        out = feedback_policy_payoff(params, pol, constant_fn(params.xi_mean), fine)
        assert abs(out.total - mean) <= 3 * stderr

    def test_constant_variance_entropy_term_exact(self, params, grid):
        c = 0.37
        pol = GaussianFeedbackPolicy(
            mean_coeff=0.0,
            variance_fn=constant_fn(c),
            reference_mean_fn=constant_fn(params.xi_mean),
        )
        out = feedback_policy_payoff(params, pol, constant_fn(params.xi_mean), grid)
        expected = 0.5 * params.lambda_se * math.log(2 * math.pi * math.e * c) * params.T
        assert out.entropy == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_variance_rejected(self, params, grid):
        # non-finite inputs are named, not turned into an all-NaN payoff
        cases = [
            (0.5, 0.0, 0.1, DomainError, "strictly positive"),
            (0.5, math.nan, 0.1, DomainError, "strictly positive"),
            (0.5, math.inf, 0.1, DomainError, "strictly positive"),
            (0.5, 0.3, math.inf, DomainError, "mean field path"),
            (0.5, 0.3, math.nan, DomainError, "mean field path"),
            (math.nan, 0.3, 0.1, ParameterError, "mean_coeff"),
        ]
        for mean_coeff, variance, mean, error, words in cases:
            pol = GaussianFeedbackPolicy(
                mean_coeff=mean_coeff,
                variance_fn=constant_fn(variance),
                reference_mean_fn=constant_fn(mean),
            )
            with pytest.raises(error, match=words):
                feedback_policy_payoff(params, pol, constant_fn(mean), grid)

    @pytest.mark.parametrize("mean_coeff, variance, mean, coefficient", [
        (0.5, 0.3, 1e200, {}),
        (0.5, 1e308, 0.1, {}),
        (1e150, 0.3, 0.1, {}),
        (0.5, 0.3, 0.1, {"A": 1e150}),
        (0.5, 0.3, 0.1, {"B": 1e150}),
        (0.5, 0.3, 0.1, {"D": 1e150}),
    ], ids=["huge_mean_path", "huge_variance", "huge_mean_coeff", "huge_A", "huge_B", "huge_D"])
    def test_overflowing_moments_name_the_part(
        self, params, grid, mean_coeff, variance, mean, coefficient
    ):
        # finite inputs whose moments overflow: named, not a NaN total or a
        # Python OverflowError, and no numpy warning escapes on the way
        params = dataclasses.replace(params, **coefficient)
        pol = GaussianFeedbackPolicy(
            mean_coeff=mean_coeff,
            variance_fn=constant_fn(variance),
            reference_mean_fn=constant_fn(mean),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="payoff's running_quadratic is not finite"):
                feedback_policy_payoff(params, pol, constant_fn(mean), grid)

    def test_error_decreases_with_refinement(self, params, grid):
        pol = equilibrium_policy(params, "se")
        reference = game_value(params, "se", 0.0, grid, refinement=1000)
        errors = [
            abs(
                feedback_policy_payoff(
                    params, pol, constant_fn(params.xi_mean), grid, refinement=r
                ).total
                - reference
            )
            for r in (1, 10, 100)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_step_schedule_input(self, params, grid):
        # per-step schedules enter through the step-function wrapper
        sched = np.linspace(0.4, 0.2, grid.n_steps)
        pol = GaussianFeedbackPolicy(
            mean_coeff=0.5,
            variance_fn=step_fn(sched, grid),
            reference_mean_fn=constant_fn(params.xi_mean),
        )
        out = feedback_policy_payoff(params, pol, constant_fn(params.xi_mean), grid)
        expected_entropy = (
            0.5 * params.lambda_se
            * np.sum(np.log(2 * math.pi * math.e * sched)) * grid.dt
        )
        assert out.entropy == pytest.approx(expected_entropy, rel=1e-3)


class TestClosedFormMoments:
    """State-moment ODE route behind ``feedback_policy_payoff``."""

    def test_constant_mean_fixed_point(self, params, grid):
        # a start at the constant mean path keeps the mean there
        m = params.xi_mean
        times = np.linspace(0.0, params.T, 101)
        mhat, _ = _moment_paths(
            params, 0.6, params.T / 100, np.full(101, 0.3), np.full(101, m), np.full(100, 0.3),
            np.full(100, m),
        )
        np.testing.assert_allclose(mhat, m, atol=1e-10)


def test_step_fn_holds_each_value_from_its_left_endpoint():
    # 0.1 / 7 is inexact, so t / dt at a left endpoint can fall just below
    # its step index
    grid = TimeGrid.from_horizon(0.1, 7)
    fn = step_fn(np.arange(7.0), grid)
    np.testing.assert_array_equal(fn(grid.step_times()), np.arange(7.0))
    assert fn(0.1) == 6.0


class TestSolveEquilibrium:
    @staticmethod
    def _check_summary(params, grid, game, mean_coeff, value):
        sol = solve_equilibrium(params, game, grid)
        assert sol.game == game
        assert sol.m_star == params.xi_mean
        assert sol.riccati[-1] == params.Q_bar
        assert sol.value_offset[-1] == 0.0
        assert sol.policy.mean_coeff == mean_coeff
        # read off the Riccati column, bit for bit what the policy and the
        # value at time 0 give
        np.testing.assert_array_equal(
            sol.policy_variance, equilibrium_policy(params, game).variance_fn(grid.times())
        )
        assert sol.game_value == (
            -0.5 * riccati_coefficient(params, 0.0, game) * params.xi_var + sol.value_offset[0]
        )
        assert sol.state_variance[0] == pytest.approx(params.xi_var, rel=1e-12)
        assert sol.game_value == pytest.approx(value, abs=2e-6)

    def test_summary_consistency(self, params, grid):
        self._check_summary(params, grid, "se", 0.75, GAME_VALUE_SE_ORACLE)

    def test_summary_consistency_ee(self, grid):
        self._check_summary(
            make_params(lambda_ce=1.0), grid, "ee", 1.5,
            -0.5 * ETA_EE_0_ORACLE * 0.99 + GAMMA_EE_0_ORACLE,
        )

    def test_grid_must_span_the_horizon(self, params):
        # the columns are read off a refinement of [0, T]; a grid ending
        # before T has no nodes to read them from
        with pytest.raises(ParameterError, match="does not span"):
            solve_equilibrium(params, "se", TimeGrid(n_steps=5, dt=0.01))

    def test_fine_grid_counts_its_own_steps(self, params):
        # T/dt lands an ulp above n_steps here; an absolute tolerance on the
        # step count added a step and refused the grid as not spanning [0, T]
        grid = TimeGrid.from_horizon(params.T, 20826)
        assert len(_refined_times(0.0, params.T, grid.dt, 1)) == 20827
        sol = solve_equilibrium(params, "se", grid, refinement=1)
        assert sol.state_variance.shape == (20827,)


@pytest.mark.parametrize("refinement", [0, -3, 2.5])
@pytest.mark.parametrize("evaluate", [
    lambda params, grid, r: feedback_policy_payoff(
        params, equilibrium_policy(params), constant_fn(params.xi_mean), grid, refinement=r
    ),
    lambda params, grid, r: game_value(params, "se", 0.0, grid, refinement=r),
    lambda params, grid, r: solve_equilibrium(params, "se", grid, refinement=r),
], ids=["feedback_policy_payoff", "game_value", "solve_equilibrium"])
def test_refinement_below_one_or_fractional_is_refused(params, grid, evaluate, refinement):
    # below 1 the quadrature took one interval of the whole horizon, and a
    # fraction failed inside linspace
    with pytest.raises(ParameterError, match="refinement must be an integer >= 1"):
        evaluate(params, grid, refinement)
