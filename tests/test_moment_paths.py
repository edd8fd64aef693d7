"""``analytic._moment_paths`` against the per-node RK4 it replaced.

The reference below calls the mean path and the variance schedule at every
RK4 stage, one time at a time, and steps the two moments node by node. The
package samples both callables once per stage time vector, writes each
RK4 step as the affine map y -> P y + q it is on this linear system and
composes the maps by a prefix scan, so the same arithmetic runs in another
order and the last bits move. The payoff integrates these paths by
trapezoid, whose own error (about 1e-6 relative at the default refinement)
is far above that, so the two must agree within 1e-12 of each path's
largest magnitude on every admissible game, grid and input shape, and
raise the same ``DomainError`` for a stage time past the horizon. The scan
itself, ``analytic._affine_scan``, is checked against the sequential
recurrence it replaces.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqmfg import GameParams, TimeGrid, equilibrium_policy
from lqmfg.analytic import _affine_scan, _moment_paths, _refined_times, constant_fn, step_fn
from lqmfg.params import DomainError

from conftest import make_params


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


class _Drawn:
    """Stands in for ``st.data()`` in an explicit example: hands out ``values`` in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


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
# the deepest scan (6001 nodes) against a per-step mean path, and a single map
@example(
    params=make_params(lambda_ce=1.0), mean_coeff=1.5, n_steps=60, refinement=100,
    start_fraction=0.0, variance_kind="ee", mean_kind="step_fn",
    data=_Drawn(np.linspace(-0.5, 0.5, 60).tolist()),
)
@example(
    params=make_params(), mean_coeff=0.5, n_steps=1, refinement=1, start_fraction=0.0,
    variance_kind="linear", mean_kind="linear", data=_Drawn(0.4, -0.5, 0.1, 0.8),
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


def _affine_path(p, q, y0):
    path = [y0]
    for p_i, q_i in zip(p.tolist(), q.tolist()):
        path.append(p_i * path[-1] + q_i)
    return np.array(path)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    length=st.integers(0, 7000),
    factors=st.sampled_from(["contracting", "near_one", "growing"]),
    seed=st.integers(0, 2**32 - 1),
    y0=_uniform(-10.0, 10.0),
)
@example(length=0, factors="growing", seed=0, y0=-2.5)
@example(length=1, factors="contracting", seed=1, y0=3.0)
@example(length=4096, factors="near_one", seed=2, y0=-1.0)
@example(length=6001, factors="growing", seed=3, y0=0.5)
def test_affine_scan_matches_the_recurrence(length, factors, seed, y0):
    # |p| <= 1, or p <= 1 + 1/length, keeps every partial product below e;
    # forcing terms and starts take either sign
    grow = 1.0 + 1.0 / max(length, 1)
    lo, hi = {"contracting": (-1.0, 1.0), "near_one": (2.0 - grow, grow), "growing": (1.0, grow)}[
        factors
    ]
    draws = np.random.default_rng(seed)
    p = draws.uniform(lo, hi, length)
    q = draws.uniform(-1.0, 1.0, length)
    want = _affine_path(p, q, y0)
    got = _affine_scan(p.copy(), q.copy(), y0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())
