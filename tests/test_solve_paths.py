"""``analytic.solve_equilibrium`` against the per-grid-time solve it replaced.

The reference below is the earlier solve: for each grid time it integrates
the value offset and the state variance from scratch on a refined grid of
its own, and the "ee" offset rebuilds the state-variance path started at
that time. The package makes one pass over one refined grid on [0, T]. The
Riccati and policy-variance columns must agree bit for bit; the integrals
change summation order, so they must agree within the benchmark's
trapezoid tolerance 1e-9 + (R h)^2 / 2, and the state variance, the "se"
game value and the "ee" equilibrium policy's payoff must also match
``bench/oracle.py`` within it.
"""

import math
import os
import sys

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqmfg import TimeGrid, equilibrium_policy, feedback_policy_payoff, solve_equilibrium
from lqmfg.analytic import _refined_times, riccati_coefficient
from lqmfg.params import DomainError

from test_moment_paths import games

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import oracle  # noqa: E402
import workloads  # noqa: E402


def _temperature(params, game):
    return params.lambda_se + (params.lambda_ce if game == "ee" else 0.0)


def _state_variance_path(params, times, start_time, game):
    lam = _temperature(params, game)
    ratio = lam / params.lambda_se
    drift_rate = -(params.A + ratio * params.B**2 / params.D**2)
    feedback = (params.B / params.D * ratio) ** 2
    rate = 2.0 * drift_rate + feedback
    eta = riccati_coefficient(params, times, game)
    rel = times - start_time
    integrand = np.exp(-rate * rel) * lam / eta
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times)))
    )
    return np.exp(rate * rel) * (params.xi_var + cum)


def _value_offset(params, t, grid, game, refinement):
    if t == params.T:
        return 0.0
    lam = _temperature(params, game)
    zs = _refined_times(t, params.T, grid.dt, refinement)
    eta = riccati_coefficient(params, zs, game)
    out = (lam / 2.0) * math.log(2.0 * math.pi * lam / params.D**2) * (params.T - t)
    out -= (lam / 2.0) * float(np.trapezoid(np.log(eta), zs))
    if game == "ee" and params.lambda_ce > 0.0:
        kappa = _state_variance_path(params, zs, start_time=t, game="ee")
        coeff = (params.B**2 / (2.0 * params.D**2)) * params.lambda_ce * lam / params.lambda_se**2
        out += coeff * float(np.trapezoid(eta * kappa, zs))
    return out


def _equilibrium_state_variance(params, s, grid, game, start_time, refinement):
    if not 0.0 <= start_time <= s <= params.T:
        raise DomainError(f"time {s!r} outside [{start_time}, {params.T}]")
    times = _refined_times(start_time, s, grid.dt, refinement)
    return float(_state_variance_path(params, times, start_time, game)[-1])


def _per_grid_time_columns(params, game, grid, refinement):
    times = grid.times()
    offsets = np.array(
        [_value_offset(params, float(z), grid, game, refinement) for z in times]
    )
    var_path = np.array(
        [_equilibrium_state_variance(params, float(z), grid, game, 0.0, refinement)
         for z in times]
    )
    return offsets, var_path


def _tolerance(g, game, n_steps, refinement):
    """``workloads._trapezoid_tolerance`` at any refinement."""
    h = g["T"] / (n_steps * refinement)
    rate = max(abs(workloads._growth(g, game)) / g["T"], oracle.decay_rate(g, game))
    return 1e-9 + 0.5 * (rate * h) ** 2


def _within(got, want, tol, scale):
    return bool(np.all(np.abs(got - want) <= tol * scale))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    params=games(),
    game=st.sampled_from(["se", "ee"]),
    n_steps=st.integers(1, 60),
    refinement=st.sampled_from([10, 100]),
)
def test_one_pass_matches_per_grid_time_solve(params, game, n_steps, refinement):
    g = workloads._game(params)
    if game == "se":
        g["lambda_ce"] = 0.0
    # the benchmark's admissible cases: no grid overshoot, r*T <= 50
    assume(not workloads._overshoots(params.T, n_steps))
    assume(workloads._growth(g, game) <= workloads.MAX_GROWTH)
    grid = TimeGrid.from_horizon(params.T, n_steps)
    tol = _tolerance(g, game, n_steps, refinement)

    sol = solve_equilibrium(params, game, grid, refinement)
    offsets, var_path = _per_grid_time_columns(params, game, grid, refinement)

    times = grid.times()
    assert sol.riccati.tobytes() == riccati_coefficient(params, times, game).tobytes()
    policy = equilibrium_policy(params, game)
    assert sol.policy_variance.tobytes() == policy.variance_fn(times).tobytes()
    # offsets vanish at T and can cross zero: compare on the column's scale
    assert _within(sol.value_offset, offsets, tol, np.abs(offsets).max())
    assert _within(sol.state_variance, var_path, tol, np.abs(var_path))

    expected = oracle.state_variance(g, n_steps, game)
    assert _within(sol.state_variance, expected, tol, np.abs(expected))
    # the benchmark's scale: the magnitudes of the payoff's three parts
    payoff = feedback_policy_payoff(
        params, sol.policy, sol.policy.reference_mean_fn, grid, refinement=refinement
    )
    scale = abs(payoff.running_quadratic) + abs(payoff.entropy) + abs(payoff.terminal)
    if game == "se":
        assert _within(sol.game_value, oracle.game_value(g), tol, scale)
    else:
        expected = oracle.payoff(
            g, oracle.gain(g, game), lambda s: oracle.policy_variance(g, s, game)
        )
        assert _within(payoff.total, expected, tol, scale)
