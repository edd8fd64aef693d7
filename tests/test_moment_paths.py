"""``analytic._moment_paths`` against the per-node RK4 it replaced.

The reference below calls the mean path and the variance schedule at every
RK4 stage, one time at a time, and steps the two moments node by node. The
package samples both callables on the nodes and on the step midpoints only,
forms each RK4 step's affine map y -> P y + q in closed form from those
samples (P's diagonal from one scalar step) and composes the maps by a
prefix scan, so the same arithmetic runs in another order and the last bits
move. The payoff integrates these paths by trapezoid, whose own error (about
1e-6 relative at the default refinement) is far above that, so the two must
agree within 1e-12 of each path's largest magnitude on every admissible
game, grid and input shape, the drift and stiff corners of the box included.

One scalar step is exact only on uniform nodes: ``_refined_times``' nodes
are checked to be uniform within the tolerance of ``_uniform_step``, which
gives the payoff its step, and the payoff refuses graded nodes. The scan
itself, ``analytic._affine_scan``, is checked against the sequential
recurrence y -> (1 + delta) y + q it replaces and, on equal maps, within
1e-14 of their closed form, which a scan on P = fl(1 + delta) misses. It
takes the one factor that every map of a uniform grid shares, and its paths
are pinned bit for bit to the Hillis-Steele scan on an array of factors that
it replaced, kept below as the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqmfg import GameParams, TimeGrid, analytic, equilibrium_policy, feedback_policy_payoff
from lqmfg.analytic import (
    _affine_scan,
    _moment_paths,
    _refined_times,
    _uniform_step,
    constant_fn,
    step_fn,
)
from lqmfg.params import ParameterError

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
        # the step ends at the next node: t + h is that node bitwise wherever
        # Sterbenz's lemma makes h exact (every step of a grid from 0), and
        # can round past the horizon on one step from 0.3 T
        t, h = times[i], times[i + 1] - times[i]
        k1m, k1p = rhs(t, mhat[i], phi2[i])
        k2m, k2p = rhs(t + h / 2, mhat[i] + h / 2 * k1m, phi2[i] + h / 2 * k1p)
        k3m, k3p = rhs(t + h / 2, mhat[i] + h / 2 * k2m, phi2[i] + h / 2 * k2p)
        k4m, k4p = rhs(times[i + 1], mhat[i] + h * k3m, phi2[i] + h * k3p)
        mhat[i + 1] = mhat[i] + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        phi2[i + 1] = phi2[i] + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return mhat, phi2


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _normal(lo, hi):
    # below 2.2e-308 a float keeps fewer than 52 bits, so no order of the
    # arithmetic holds 1e-12 relative there: from a mean of 2.2e-311 on a zero
    # mean path the per-node reference ends 51 subnormal units off the exact
    # RK4 (the bound allows 4), while _moment_paths ends within 1
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def games(draw, floats=_uniform):
    """Admissible games over the ranges of ``conftest.random_params``."""
    xi_mean = draw(floats(-1.0, 1.0))
    return GameParams(
        A=draw(floats(0.5, 4.0)),
        B=draw(floats(0.5, 4.0)),
        D=draw(floats(0.5, 3.0)),
        Q=draw(floats(0.5, 5.0)),
        Q_bar=draw(floats(0.5, 5.0)),
        lambda_se=draw(floats(0.2, 3.0)),
        lambda_ce=draw(floats(0.0, 3.0)),
        T=draw(floats(0.05, 1.0)),
        xi_mean=xi_mean,
        xi_second_moment=xi_mean**2 + draw(floats(0.0, 2.0)),
    )


def _time_function(draw, kind, grid, lo, hi):
    if kind == "constant":
        return constant_fn(draw(_normal(lo, hi)))
    if kind == "linear":
        c0 = draw(_normal(lo, hi))
        c1 = draw(_normal(-1.0, 1.0))
        return lambda t: c0 + c1 * np.asarray(t)
    values = draw(st.lists(_normal(lo, hi), min_size=grid.n_steps, max_size=grid.n_steps))
    return step_fn(np.array(values), grid)


def sampled_moment_paths(params, mean_coeff, variance_fn, mean_field_fn, times):
    """``_moment_paths`` on ``times`` with the samples the payoff passes it."""
    h = _uniform_step(times)
    mid = times[:-1] + h / 2
    return _moment_paths(
        params, mean_coeff, h,
        np.asarray(variance_fn(times), dtype=float), np.asarray(mean_field_fn(times), dtype=float),
        np.asarray(variance_fn(mid), dtype=float), np.asarray(mean_field_fn(mid), dtype=float),
    )


class _Drawn:
    """Stands in for ``st.data()`` in an explicit example: hands out ``values`` in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    params=games(_normal),
    mean_coeff=_normal(0.0, 2.0),
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
# the drift corner: a second moment growing by c*h = 1.6e-4 over each of 6000
# equal maps, where a factor 1 + delta rounded once per map repeats its rounding
@example(
    params=make_params(A=0.5, B=4.0, D=3.0, T=0.05, lambda_ce=1.0), mean_coeff=2.0,
    n_steps=60, refinement=100, start_fraction=0.0, variance_kind="ee", mean_kind="step_fn",
    data=_Drawn(np.linspace(-0.5, 0.5, 60).tolist()),
)
# the stiff corner: one step of h = 1 at a = 12, c = -23
@example(
    params=make_params(A=4.0, B=4.0, D=0.5, T=1.0), mean_coeff=2.0, n_steps=1, refinement=1,
    start_fraction=0.0, variance_kind="se", mean_kind="linear", data=_Drawn(0.4, -0.5),
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

    expected = _moment_paths_per_node(params, mean_coeff, variance_fn, mean_fn, times)
    actual = sampled_moment_paths(params, mean_coeff, variance_fn, mean_fn, times)
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


def _affine_path(delta, q, y0):
    path = [y0]
    for q_i in q.tolist():
        path.append(path[-1] + delta * path[-1] + q_i)
    return np.array(path)


def _affine_scan_per_map(delta, q, y0):
    """The Hillis-Steele scan on an array of factors less 1, one per map."""
    d = 1
    while d < len(delta):
        grow = 1.0 + delta[d:]
        q[d:] += q[:-d] * grow
        delta[d:] += delta[:-d] * grow
        d *= 2
    return np.concatenate(([y0], y0 + delta * y0 + q))


def _scan_inputs(length, factors, seed):
    # each map is y -> (1 + delta) y + q; |1 + delta| <= 1, or
    # delta <= 1/length, keeps every partial product below e; "equal" also
    # repeats one forcing term, as a constant-coefficient RK4 step does;
    # forcing terms and starts take either sign
    step = 1.0 / max(length, 1)
    lo, hi = {
        "contracting": (-2.0, 0.0), "near_one": (-step, step), "growing": (0.0, step),
        "equal": (-step, step),
    }[factors]
    draws = np.random.default_rng(seed)
    delta = np.float64(draws.uniform(lo, hi))
    if factors == "equal":
        return delta, np.full(length, draws.uniform(-1.0, 1.0))
    return delta, draws.uniform(-1.0, 1.0, length)


_SCAN_CASES = dict(
    length=st.integers(0, 7000),
    factors=st.sampled_from(["contracting", "near_one", "growing", "equal"]),
    seed=st.integers(0, 2**32 - 1),
    y0=_uniform(-10.0, 10.0),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_SCAN_CASES)
@example(length=0, factors="growing", seed=0, y0=-2.5)
@example(length=1, factors="contracting", seed=1, y0=3.0)
@example(length=4096, factors="near_one", seed=2, y0=-1.0)
@example(length=6001, factors="growing", seed=3, y0=0.5)
@example(length=6000, factors="equal", seed=4, y0=1.5)
def test_affine_scan_matches_the_recurrence(length, factors, seed, y0):
    delta, q = _scan_inputs(length, factors, seed)
    want = _affine_path(delta, q, y0)
    got = _affine_scan(delta, q.copy(), y0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_SCAN_CASES)
@example(length=0, factors="growing", seed=0, y0=-2.5)
@example(length=1, factors="contracting", seed=1, y0=3.0)
@example(length=4097, factors="near_one", seed=2, y0=-1.0)
@example(length=6000, factors="equal", seed=4, y0=1.5)
def test_affine_scan_keeps_the_bits_of_the_scan_per_map(length, factors, seed, y0):
    # one scalar grow per pass and one block of composed factors per pass
    # are the operands and operations the per-map scan applies to equal
    # factors, so the paths are bitwise the same
    delta, q = _scan_inputs(length, factors, seed)
    want = _affine_scan_per_map(np.full(length, delta), q.copy(), y0)
    got = _affine_scan(delta, q.copy(), y0)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    length=st.integers(1, 7000),
    rate=st.one_of(st.floats(-0.9, -1e-6), st.floats(1e-6, 1.0)),
    q=_uniform(-1.0, 1.0),
    y0=_uniform(-10.0, 10.0),
)
# the drift corner's second-moment map: c*h = 1.6e-4 on each of 6000 steps
@example(length=6000, rate=0.96, q=0.3, y0=1.5)
def test_affine_scan_keeps_equal_maps_within_a_few_ulps(length, rate, q, y0):
    # length equal maps y -> (1 + delta) y + q against their closed form
    # y0 (1 + delta)^k + q ((1 + delta)^k - 1) / delta, taken from log1p and
    # expm1 so that 1 + delta is never rounded; a scan on P = fl(1 + delta)
    # repeats that one rounding length times (3.5e-13 at the example), where
    # the 1 + delta scan stays below 2e-15
    delta = rate / length
    growth = np.expm1(np.arange(length + 1) * np.log1p(delta))
    want = y0 + growth * y0 + q * growth / delta
    got = _affine_scan(np.float64(delta), np.full(length, q), y0)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    T=_uniform(1e-2, 10.0),
    start_fraction=st.sampled_from([0.0, 0.3]),
    n_steps=st.integers(1, 100),
    refinement=st.sampled_from([1, 10, 100]),
)
@example(T=0.1, start_fraction=0.0, n_steps=100, refinement=100)
@example(T=7.3, start_fraction=0.3, n_steps=1, refinement=1)
def test_refined_nodes_are_uniform_and_end_each_step(T, start_fraction, n_steps, refinement):
    # up to 10^4 steps; one scalar step h and end stages sampled on the nodes
    # rest on two properties of the nodes
    times = _refined_times(start_fraction * T, T, T / n_steps, refinement)
    h = np.diff(times)
    # Sterbenz's lemma: t[i+1] - t[i] is exact where t[i+1] <= 2 t[i], so the
    # step ends on the next node bitwise; on a grid from 0 that is every step
    # (a single step from 0.3 T is not covered, and can miss by one ulp)
    exact = (times[:-1] == 0.0) | (times[1:] <= 2.0 * times[:-1])
    assert exact.all() or start_fraction > 0.0
    np.testing.assert_array_equal((times[:-1] + h)[exact], times[1:][exact])
    # uniform within the tolerance the payoff's _uniform_step uses
    assert _uniform_step(times) == (times[-1] - times[0]) / (len(times) - 1)


@pytest.mark.parametrize("nodes", [
    np.linspace(0.0, 1.0, 101) ** 2,
    np.concatenate((np.linspace(0.0, 0.5, 11), np.linspace(0.6, 1.0, 5))),
    np.linspace(0.0, 0.1, 501) + np.arange(501) % 2 * 1e-15,
], ids=["graded", "two_spacings", "jitter_1e-15"])
def test_non_uniform_nodes_are_refused(monkeypatch, nodes):
    # the payoff steps its moments with one scalar step, which would silently
    # misplace every stage of graded nodes
    monkeypatch.setattr(analytic, "_refined_times", lambda *args: nodes)
    params = make_params(T=1.0)
    with pytest.raises(ParameterError, match="quadrature nodes are not uniform"):
        feedback_policy_payoff(
            params, equilibrium_policy(params), constant_fn(0.1), TimeGrid.from_horizon(1.0, 5)
        )
