"""Closed-form equilibrium objects of the entropy-regularized LQ game.

Two game variants are supported, selected by the ``game`` argument:

* ``"se"``: self-exploration only (Shannon bonus, temperature lambda_se);
* ``"ee"``: enhanced exploration (additional cross-exploration bonus at
  temperature lambda_ce). ``lambda_ce == 0`` reduces "ee" to "se" exactly.

Everything here is a pure function of its inputs (the README lists the
closed forms).

Riccati coefficients are always evaluated from the closed form. The one
ODE stepped here is the linear state-moment system behind the policy payoff
(classical RK4 on the refined grid, ``_moment_paths``): each step is formed
as one affine map, for all steps at once, and the maps are then composed by
a log-depth prefix scan (``_affine_scan``). Integrals use composite
trapezoid on a uniform refinement of the simulation grid (smooth
integrands, O(h^2) error, verifiable by refinement).

The value offsets and the equilibrium state variance share one pass over
the refined nodes (``_equilibrium_integrals``): backward cumulative
trapezoids give every offset, the "ee" cross term included, and one forward
cumulative trapezoid gives the variance path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import DomainError, GameParams, ParameterError, TimeGrid, check_finite

GAMES = ("se", "ee")

# Default quadrature refinement: sub-steps per simulation step.
DEFAULT_REFINEMENT = 100


def _check_game(game: str) -> None:
    if game not in GAMES:
        raise ParameterError(f"game must be one of {GAMES}, got {game!r}")


def temperature(params: GameParams, game: str) -> float:
    """Total exploration temperature of the variant."""
    _check_game(game)
    return params.lambda_se + (params.lambda_ce if game == "ee" else 0.0)


def _temperature_ratio(params: GameParams, game: str) -> float:
    if game == "se":
        return 1.0
    params.require_positive_temperature()
    return temperature(params, game) / params.lambda_se


def decay_rate(params: GameParams, game: str) -> float:
    """Rate of the linear backward ODE solved by the value curvature."""
    ratio = _temperature_ratio(params, game)
    return 2.0 * params.A + params.B**2 / params.D**2 * ratio


def riccati_coefficient(params: GameParams, t, game: str = "se"):
    """Quadratic coefficient of the value function at time(s) ``t``.

    Solves eta' = rho * eta - Q backward from eta(T) = Q_bar, where rho is
    ``decay_rate``. Strictly positive on [0, T]; accepts scalar or array t.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr <= params.T)):  # NaN fails both
        raise DomainError(f"time outside the horizon [0, {params.T}]")
    rho = decay_rate(params, game)
    decay = np.exp(-rho * (params.T - t_arr))
    out = params.Q_bar * decay + (params.Q / rho) * (1.0 - decay)
    return out if out.ndim else float(out)


def _refined_times(t0: float, t1: float, base_dt: float, refinement: int) -> np.ndarray:
    """Uniform quadrature nodes on [t0, t1] with step about base_dt/refinement."""
    span = t1 - t0
    if span <= 0.0:
        return np.array([t0])
    n = max(1, math.ceil(span / base_dt - 1e-12) * refinement)
    return np.linspace(t0, t1, n + 1)


def equilibrium_state_rates(params: GameParams, game: str) -> tuple[float, float]:
    """Linear rates (drift_rate, variance_feedback_rate) of the equilibrium state.

    The equilibrium state follows a linear SDE whose variance obeys
    var' = (2*drift_rate + variance_feedback_rate) * var + source; the drift
    rate is negative (mean reversion), the feedback rate positive.

    The drift rate is A plus the control gain B times the policy's feedback
    coefficient ratio*B/D^2, i.e. -(A + ratio * B^2/D^2). Only the control
    part is amplified by the temperature ratio; an alternative form scaling
    the whole sum by the ratio disagrees with simulation of the equilibrium
    dynamics whenever the cross temperature is positive (19 sigma at
    lambda_se = lambda_ce = 1 with 2e5 paths) and is not used.
    """
    ratio = _temperature_ratio(params, game)
    drift_rate = -(params.A + ratio * params.B**2 / params.D**2)
    variance_feedback = (params.B / params.D * ratio) ** 2
    return drift_rate, variance_feedback


def _equilibrium_integrals(
    params: GameParams, game: str, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value offsets (integrated up to times[-1], the horizon T) and the
    equilibrium state variance (started at times[0]) at every node."""
    params.require_positive_temperature()
    _check_game(game)
    lam = temperature(params, game)
    eta = riccati_coefficient(params, times, game)
    h = np.diff(times)

    def head(f):  # \int_{times[0]}^{times[i]} f
        return np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * h)))

    def tail(f):  # \int_{times[i]}^{times[-1]} f
        return np.concatenate((np.cumsum((0.5 * (f[1:] + f[:-1]) * h)[::-1])[::-1], [0.0]))

    drift_rate, feedback = equilibrium_state_rates(params, game)
    rate = 2.0 * drift_rate + feedback
    rel = times - times[0]
    grow, shrink = np.exp(rate * rel), np.exp(-rate * rel)
    # var(s) = e^{rate*(s-t0)} * (var0 + \int_{t0}^{s} e^{-rate*(u-t0)} lam/eta(u) du)
    variance = grow * (params.xi_var + head(shrink * lam / eta))

    offsets = (lam / 2.0) * tail(np.log(2.0 * math.pi * lam / (params.D**2 * eta)))
    if game == "ee" and params.lambda_ce > 0.0:
        # G(z) = \int_z^T eta(s) Var[X_s | start z] ds, without a variance path
        # per z: with H(z) = \int_z^T eta(s) e^{rate*(s-z)} ds,
        # G(z) = Var[xi] H(z) + \int_z^T lam/eta(u) H(u) du.
        decayed = shrink * tail(eta * grow)
        cross = params.xi_var * decayed + tail(lam / eta * decayed)
        coeff = (params.B**2 / (2.0 * params.D**2)) * params.lambda_ce * lam / params.lambda_se**2
        offsets = offsets + coeff * cross
    return offsets, variance


def constant_fn(value: float) -> Callable:
    """Time function that is identically ``value`` (vectorized)."""

    def fn(t):
        return np.full_like(np.asarray(t, dtype=float), value) if np.ndim(t) else value

    return fn


def step_fn(values: np.ndarray, grid: TimeGrid) -> Callable:
    """Right-continuous step function holding values[s] on [s*dt, (s+1)*dt)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_steps,):
        raise ParameterError(
            f"expected {grid.n_steps} per-step values, got shape {values.shape}"
        )
    starts = grid.step_times()

    def fn(t):
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, grid.n_steps - 1)
        out = values[idx]
        return out if np.ndim(t) else float(out)

    return fn


@dataclass(frozen=True)
class GaussianFeedbackPolicy:
    """Feedback law: at state x and time t, act by N(mean_coeff*(m(t) - x), variance_fn(t)).

    ``reference_mean_fn`` is the population-mean path the feedback is taken
    against; for equilibrium policies it is the constant xi_mean.
    """

    mean_coeff: float
    variance_fn: Callable
    reference_mean_fn: Callable

    def variance_on(self, times) -> np.ndarray:
        return np.asarray(self.variance_fn(np.asarray(times, dtype=float)), dtype=float)


def equilibrium_policy(params: GameParams, game: str = "se") -> GaussianFeedbackPolicy:
    """Equilibrium Gaussian feedback policy of the chosen game variant."""
    params.require_positive_temperature()
    _check_game(game)
    ratio = _temperature_ratio(params, game)
    lam = temperature(params, game)
    mean_coeff = ratio * params.B / params.D**2

    def variance_fn(t):
        return lam / (params.D**2 * riccati_coefficient(params, t, game))

    return GaussianFeedbackPolicy(
        mean_coeff=mean_coeff,
        variance_fn=variance_fn,
        reference_mean_fn=constant_fn(params.xi_mean),
    )


def game_value(
    params: GameParams,
    game: str,
    t: float,
    grid: TimeGrid,
    refinement: int = DEFAULT_REFINEMENT,
) -> float:
    """Expected value of the game at time ``t`` over the initial distribution.

    Averaging the quadratic value ansatz over the initial state gives
    -eta(t)/2 * Var[xi] + gamma(t).
    """
    params.check_time(t)
    eta_t = riccati_coefficient(params, t, game)
    times = _refined_times(t, params.T, grid.dt, refinement)
    offsets, _ = _equilibrium_integrals(params, game, times)
    return -0.5 * eta_t * params.xi_var + float(offsets[0])


@dataclass(frozen=True)
class PayoffBreakdown:
    """Expected payoff of a Gaussian feedback policy, with its three parts."""

    total: float
    running_quadratic: float
    entropy: float
    terminal: float


def _moment_paths(
    params: GameParams,
    mean_coeff: float,
    variance_fn: Callable,
    mean_field_fn: Callable,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of the controlled state along ``times`` (RK4).

    The controlled dynamics aggregate the policy's action moments, so the
    state moments close into a linear ODE system:

        mhat' = a * (m(t) - mhat),                      a = A + B*mean_coeff
        phi2' = -2a*phi2 + 2a*m(t)*mhat
                + D^2 * (mean_coeff^2 * (phi2 - 2*m(t)*mhat + m(t)^2) + var(t))

    Both callables must be vectorized: each is called once per stage time
    vector (step starts, midpoints, ends). On this linear system an RK4 step
    is an affine map y -> P y + q; the stage expressions are applied to the
    states 0, e_mhat and e_phi2 for all steps at once, giving q and the
    columns of P (P's upper-right entry is exactly 0: the mean equation does
    not read phi2); two affine scans give mhat, then phi2 forced by
    p21 * mhat + q2. This reorders the arithmetic of a step-by-step RK4 that
    calls m and var at each stage, so each path differs from that one by
    less than 1e-12 of its largest magnitude (at most 3.3e-13 in the tests).
    """
    a = params.A + params.B * mean_coeff
    D2 = params.D**2
    M2 = mean_coeff**2
    two_a = 2.0 * a
    minus_two_a = -2.0 * a

    t0 = times[:-1]
    h = times[1:] - t0
    # a step ends at t0 + h, which can differ from times[1:] in the last bit
    stage_times = (t0, t0 + h / 2, t0 + h)
    ms, mm, me = (np.asarray(mean_field_fn(t), dtype=float) for t in stage_times)
    vs, vm, ve = (np.asarray(variance_fn(t), dtype=float) for t in stage_times)

    # rows: the images of the states 0, e_mhat and e_phi2 under each step
    mh = np.array([[0.0], [1.0], [0.0]])
    p2 = np.array([[0.0], [0.0], [1.0]])
    half = h / 2
    k1m = a * (ms - mh)
    k1p = minus_two_a * p2 + two_a * ms * mh + D2 * (M2 * (p2 - 2.0 * ms * mh + ms * ms) + vs)
    x, y = mh + half * k1m, p2 + half * k1p
    k2m = a * (mm - x)
    k2p = minus_two_a * y + two_a * mm * x + D2 * (M2 * (y - 2.0 * mm * x + mm * mm) + vm)
    x, y = mh + half * k2m, p2 + half * k2p
    k3m = a * (mm - x)
    k3p = minus_two_a * y + two_a * mm * x + D2 * (M2 * (y - 2.0 * mm * x + mm * mm) + vm)
    x, y = mh + h * k3m, p2 + h * k3p
    k4m = a * (me - x)
    k4p = minus_two_a * y + two_a * me * x + D2 * (M2 * (y - 2.0 * me * x + me * me) + ve)
    sixth = h / 6
    mh = mh + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    p2 = p2 + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    q1, q2 = mh[0], p2[0]
    mhat = _affine_scan(mh[1] - q1, q1, params.xi_mean)
    forcing = (p2[1] - q2) * mhat[:-1] + q2
    return mhat, _affine_scan(p2[2] - q2, forcing, params.xi_second_moment)


def _affine_scan(p: np.ndarray, q: np.ndarray, y0: float) -> np.ndarray:
    """The path y[0] = y0, y[i+1] = p[i] * y[i] + q[i], overwriting p and q.

    Hillis-Steele doubling: pass d composes each map with the one d before it,
    by products and sums only (never a division by a cumulative product).
    """
    d = 1
    while d < len(p):
        q[d:] += p[d:] * q[:-d]
        p[d:] *= p[:-d]
        d *= 2
    return np.concatenate(([y0], p * y0 + q))


def feedback_policy_payoff(
    params: GameParams,
    policy: GaussianFeedbackPolicy,
    mean_field_fn,
    grid: TimeGrid,
    refinement: int = DEFAULT_REFINEMENT,
) -> PayoffBreakdown:
    """Expected payoff of an arbitrary Gaussian feedback policy against m(t).

    ``mean_field_fn`` (t -> m(t)) and the policy's ``variance_fn`` must both
    be vectorized: they are only ever called on arrays of times. Integrates
    the state-moment ODEs forward on the refined grid and assembles the
    running quadratic penalty, the Shannon exploration bonus, and the
    terminal penalty by composite trapezoid. Requires a finite feedback
    coefficient, a finite mean path and a finite, strictly positive policy
    variance along the horizon; a part these overflow raises ParameterError.
    """
    check_finite(policy)
    times = _refined_times(0.0, params.T, grid.dt, refinement)
    var = np.asarray(policy.variance_fn(times), dtype=float)
    if not np.all((var > 0.0) & (var < math.inf)):
        raise DomainError("policy variance must be finite and strictly positive on the horizon")
    m = np.asarray(mean_field_fn(times), dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("mean field path must be finite on the horizon")
    # inputs far from the reference scale can overflow the moments; the parts
    # are checked below, so the error names the first one that is lost
    with np.errstate(over="ignore", invalid="ignore"):
        mhat, phi2 = _moment_paths(
            params, policy.mean_coeff, policy.variance_fn, mean_field_fn, times
        )
        ex2 = phi2 - 2.0 * m * mhat + m * m
        running = -0.5 * params.Q * float(np.trapezoid(ex2, times))
        entropy = 0.5 * params.lambda_se * float(
            np.trapezoid(np.log(2.0 * math.pi * math.e * var), times)
        )
        terminal = -0.5 * params.Q_bar * float(ex2[-1])
    for name, part in dict(running_quadratic=running, entropy=entropy, terminal=terminal).items():
        if not math.isfinite(part):
            raise ParameterError(
                f"the payoff's {name} is not finite for {params}: the policy, the mean path "
                "or the game coefficients are outside the closed forms' range"
            )
    return PayoffBreakdown(
        total=running + entropy + terminal,
        running_quadratic=running,
        entropy=entropy,
        terminal=terminal,
    )


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium summary of one game variant on a simulation grid."""

    game: str
    times: np.ndarray
    riccati: np.ndarray
    value_offset: np.ndarray
    policy: GaussianFeedbackPolicy
    policy_variance: np.ndarray
    game_value: float
    m_star: float
    state_variance: np.ndarray


def solve_equilibrium(
    params: GameParams,
    game: str,
    grid: TimeGrid,
    refinement: int = DEFAULT_REFINEMENT,
) -> EquilibriumSolution:
    """Evaluate every closed-form equilibrium object on the grid, in one pass."""
    times = grid.times()
    params.check_time(float(times[-1]))
    fine = _refined_times(0.0, params.T, grid.dt, refinement)
    # the grid times are every refinement-th node only if the grid spans [0, T]
    if len(fine) != grid.n_steps * refinement + 1:
        raise ParameterError(f"grid of {grid.n_steps} steps does not span [0, {params.T}]")
    # coefficients far from the reference scale can overflow; the columns
    # are checked below, so the error names the first one that is lost
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        offsets, variance = _equilibrium_integrals(params, game, fine)
        policy = equilibrium_policy(params, game)
        solution = EquilibriumSolution(
            game=game,
            times=times,
            riccati=riccati_coefficient(params, times, game),
            value_offset=offsets[::refinement],
            policy=policy,
            policy_variance=policy.variance_on(times),
            game_value=-0.5 * riccati_coefficient(params, 0.0, game) * params.xi_var
            + float(offsets[0]),
            m_star=params.xi_mean,
            state_variance=variance[::refinement],
        )
    for name in ("riccati", "value_offset", "policy_variance", "state_variance", "game_value"):
        if not np.isfinite(getattr(solution, name)).all():
            raise ParameterError(
                f"the {game} equilibrium's {name} is not finite for {params}: "
                "the game coefficients are outside the closed forms' range"
            )
    return solution
