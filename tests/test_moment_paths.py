"""``analytic._moment_paths`` against the per-node RK4 it replaced.

The reference below calls the mean path and the variance schedule at every
RK4 stage, one time at a time, and steps the two moments node by node. The
package samples both callables once per stage time vector and writes each
RK4 step as the affine map y -> P y + q it is on this linear system, so the
same arithmetic runs in another order and the last bits move. The payoff
integrates these paths by trapezoid, whose own error (about 1e-6 relative
at the default refinement) is far above that, so the two must agree within
1e-12 of each path's largest magnitude on every admissible game, grid and
input shape, and raise the same ``DomainError`` for a stage time past the
horizon.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg import GameParams, TimeGrid, equilibrium_policy
from lqmfg.analytic import _moment_paths, _refined_times, constant_fn, step_fn
from lqmfg.params import DomainError


def _moment_paths_per_node(params, mean_coeff, variance_fn, mean_field_fn, times):
    a = params.A + params.B * mean_coeff
    D2 = params.D**2
    M2 = mean_coeff**2

    def rhs(t, mhat, phi2):
        m = mean_field_fn(t)
        var = variance_fn(t)
        ex2 = phi2 - 2.0 * m * mhat + m * m
        dm = a * (m - mhat)
        dp = -2.0 * a * phi2 + 2.0 * a * m * mhat + D2 * (M2 * ex2 + var)
        return dm, dp

    n = len(times)
    mhat = np.empty(n)
    phi2 = np.empty(n)
    mhat[0] = params.xi_mean
    phi2[0] = params.xi_second_moment
    for i in range(n - 1):
        t, h = times[i], times[i + 1] - times[i]
        k1m, k1p = rhs(t, mhat[i], phi2[i])
        k2m, k2p = rhs(t + h / 2, mhat[i] + h / 2 * k1m, phi2[i] + h / 2 * k1p)
        k3m, k3p = rhs(t + h / 2, mhat[i] + h / 2 * k2m, phi2[i] + h / 2 * k2p)
        k4m, k4p = rhs(t + h, mhat[i] + h * k3m, phi2[i] + h * k3p)
        mhat[i + 1] = mhat[i] + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        phi2[i + 1] = phi2[i] + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return mhat, phi2


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def games(draw):
    """Admissible games over the ranges of ``conftest.random_params``."""
    xi_mean = draw(_uniform(-1.0, 1.0))
    return GameParams(
        A=draw(_uniform(0.5, 4.0)),
        B=draw(_uniform(0.5, 4.0)),
        D=draw(_uniform(0.5, 3.0)),
        Q=draw(_uniform(0.5, 5.0)),
        Q_bar=draw(_uniform(0.5, 5.0)),
        lambda_se=draw(_uniform(0.2, 3.0)),
        lambda_ce=draw(_uniform(0.0, 3.0)),
        T=draw(_uniform(0.05, 1.0)),
        xi_mean=xi_mean,
        xi_second_moment=xi_mean**2 + draw(_uniform(0.0, 2.0)),
    )


def _time_function(draw, kind, grid, lo, hi):
    if kind == "constant":
        return constant_fn(draw(_uniform(lo, hi)))
    if kind == "linear":
        c0 = draw(_uniform(lo, hi))
        c1 = draw(_uniform(-1.0, 1.0))
        return lambda t: c0 + c1 * np.asarray(t)
    values = draw(st.lists(_uniform(lo, hi), min_size=grid.n_steps, max_size=grid.n_steps))
    return step_fn(np.array(values), grid)


def _run(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return repr(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    params=games(),
    mean_coeff=_uniform(0.0, 2.0),
    n_steps=st.integers(1, 60),
    refinement=st.sampled_from([1, 10, 100]),
    start_fraction=st.sampled_from([0.0, 0.3]),
    variance_kind=st.sampled_from(["constant", "linear", "step_fn", "se", "ee"]),
    mean_kind=st.sampled_from(["constant", "linear", "step_fn"]),
    data=st.data(),
)
def test_matches_per_node_rk4(
    params, mean_coeff, n_steps, refinement, start_fraction, variance_kind, mean_kind, data
):
    grid = TimeGrid.from_horizon(params.T, n_steps)
    if variance_kind in ("se", "ee"):
        variance_fn = equilibrium_policy(params, variance_kind).variance_fn
    else:
        variance_fn = _time_function(data.draw, variance_kind, grid, 0.05, 1.0)
    mean_fn = _time_function(data.draw, mean_kind, grid, -1.0, 1.0)
    times = _refined_times(start_fraction * params.T, params.T, grid.dt, refinement)

    expected = _run(_moment_paths_per_node, params, mean_coeff, variance_fn, mean_fn, times)
    actual = _run(_moment_paths, params, mean_coeff, variance_fn, mean_fn, times)
    if isinstance(expected, str):  # a stage time past the horizon
        assert actual == expected
        return
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())
