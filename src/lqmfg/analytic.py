"""Closed-form equilibrium objects of the entropy-regularized LQ game.

Two game variants are supported, selected by the ``game`` argument:

* ``"se"``: self-exploration only (Shannon bonus, temperature lambda_se);
* ``"ee"``: enhanced exploration (additional cross-exploration bonus at
  temperature lambda_ce). ``lambda_ce == 0`` reduces "ee" to "se" exactly.

The variants differ only in their total temperature and its ratio to
lambda_se (``_temperatures``). Everything here is a pure function of its
inputs (the README lists the closed forms). Riccati coefficients are always
evaluated from the closed form, by ``riccati_coefficient``, the one check
that a time lies on the horizon [0, T]. The one ODE stepped here is the
linear state-moment system behind the policy payoff (classical RK4 on the
uniform refined grid, ``_moment_paths``): each step's affine map is written
in closed form from the mean path and the variance schedule sampled on the
nodes and the step midpoints, for all steps at once, and the maps are then
composed by a log-depth prefix scan on their one factor less 1
(``_affine_scan``). Integrals use composite trapezoid on a uniform
refinement of the simulation grid (smooth integrands, O(h^2) error,
verifiable by refinement).

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


def _temperatures(params: GameParams, game: str) -> tuple[float, float]:
    """Total exploration temperature of the variant and its ratio to lambda_se."""
    if game not in GAMES:
        raise ParameterError(f"game must be one of {GAMES}, got {game!r}")
    if game == "se":
        return params.lambda_se, 1.0
    params.require_positive_temperature()
    lam = params.lambda_se + params.lambda_ce
    return lam, lam / params.lambda_se


def decay_rate(params: GameParams, game: str) -> float:
    """Rate of the linear backward ODE solved by the value curvature."""
    _, ratio = _temperatures(params, game)
    return 2.0 * params.A + params.B**2 / params.D**2 * ratio


def riccati_coefficient(params: GameParams, t, game: str = "se"):
    """Quadratic coefficient of the value function at time(s) ``t``.

    Solves eta' = rho * eta - Q backward from eta(T) = Q_bar, where rho is
    ``decay_rate``. Strictly positive on [0, T]; accepts scalar or array t.
    The one horizon check: a DomainError names the first time outside it.
    """
    t_arr = np.asarray(t, dtype=float)
    inside = (t_arr >= 0.0) & (t_arr <= params.T)  # NaN fails both
    if not inside.all():
        first = float(t_arr.flat[np.argmin(inside)])
        raise DomainError(f"time {first!r} outside the horizon [0, {params.T}]")
    rho = decay_rate(params, game)
    decay = np.exp(-rho * (params.T - t_arr))
    out = params.Q_bar * decay + (params.Q / rho) * (1.0 - decay)
    return out if out.ndim else float(out)


def _refined_times(t0: float, t1: float, base_dt: float, refinement: int) -> np.ndarray:
    """Uniform quadrature nodes on [t0, t1] with step about base_dt/refinement."""
    if not isinstance(refinement, (int, np.integer)) or refinement < 1:
        raise ParameterError(f"refinement must be an integer >= 1, got {refinement!r}")
    span = t1 - t0
    if span <= 0.0:
        return np.array([t0])
    # a relative tolerance: T/dt can land an ulp above n_steps from ~18 000 steps
    n = max(1, math.ceil(span / base_dt * (1.0 - 1e-12)) * refinement)
    return np.linspace(t0, t1, n + 1)


def _state_rates(params: GameParams, ratio: float) -> tuple[float, float]:
    """Drift rate and variance feedback rate of the equilibrium state, whose
    variance obeys var' = (2*drift_rate + feedback) * var + source. Only the
    control part of the drift carries the temperature ratio: scaling the whole
    drift by it is 19 sigma off in simulation (lambda_se = lambda_ce = 1, 2e5
    paths)."""
    drift_rate = -(params.A + ratio * params.B**2 / params.D**2)
    variance_feedback = (params.B / params.D * ratio) ** 2
    return drift_rate, variance_feedback


def _equilibrium_integrals(
    params: GameParams, game: str, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value offsets (integrated up to times[-1], the horizon T) and the
    equilibrium state variance (started at times[0]) at every node."""
    params.require_positive_temperature()
    lam, ratio = _temperatures(params, game)
    eta = riccati_coefficient(params, times, game)
    h = np.diff(times)

    def head(f):  # \int_{times[0]}^{times[i]} f
        return np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * h)))

    def tail(f):  # \int_{times[i]}^{times[-1]} f
        return np.concatenate((np.cumsum((0.5 * (f[1:] + f[:-1]) * h)[::-1])[::-1], [0.0]))

    drift_rate, feedback = _state_rates(params, ratio)
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


def _exploration_variance(params: GameParams, lam: float, eta):
    """Equilibrium policy variance at total temperature lam and Riccati coefficient eta."""
    return lam / (params.D**2 * eta)


def equilibrium_policy(params: GameParams, game: str = "se") -> GaussianFeedbackPolicy:
    """Equilibrium Gaussian feedback policy of the chosen game variant."""
    params.require_positive_temperature()
    lam, ratio = _temperatures(params, game)
    mean_coeff = ratio * params.B / params.D**2

    def variance_fn(t):
        return _exploration_variance(params, lam, riccati_coefficient(params, t, game))

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
    eta_t = riccati_coefficient(params, t, game)  # checks t is on the horizon
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


def _uniform_step(times: np.ndarray) -> np.float64:
    """The one step of the uniform nodes ``times``; ParameterError if they are not.

    The payoff steps its moments with this one scalar, so graded nodes are
    refused here rather than stepped as if uniform. ``_refined_times``'
    spacings stay within 1.4 eps * max|t| of their mean (eps the float64
    machine epsilon); one off by more than 4 eps * max|t| is not uniform.
    """
    h = (times[-1] - times[0]) / (len(times) - 1)
    off = np.abs(np.diff(times) - h)
    if np.any(off > 4.0 * np.finfo(float).eps * max(abs(times[0]), abs(times[-1]))):
        i = int(np.argmax(off))
        raise ParameterError(
            f"quadrature nodes are not uniform: step {i} is {times[i + 1] - times[i]!r}, "
            f"not {h!r}"
        )
    return h


def _rk4_growth(z: np.float64) -> np.float64:
    """RK4's one-step factor on y' = (z/h) y, less 1: z + z^2/2 + z^3/6 + z^4/24."""
    return z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _moment_paths(
    params: GameParams,
    mean_coeff: float,
    h: np.float64,
    var: np.ndarray,
    m: np.ndarray,
    var_mid: np.ndarray,
    m_mid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of the controlled state on uniform nodes (RK4).

    The controlled dynamics aggregate the policy's action moments, so the
    state moments y = (mhat, phi2) close into a linear ODE y' = L(t) y + b(t):

        L = [[-a, 0], [e*m(t), c]],   b = [a*m(t), D^2*(M^2*m(t)^2 + var(t))]

    with M = mean_coeff, a = A + B*M, c = D^2*M^2 - 2a and e = 2a - 2D^2*M^2.
    ``var`` and ``m`` are var(t) and m(t) on nodes a step ``h`` apart (the
    one step ``_uniform_step`` gives), ``var_mid`` and ``m_mid`` the same at
    the step midpoints.

    An RK4 step of length h is the affine map y -> P y + q with
    P = I + (h/6)(L1+4L2+L4) + (h^2/6)(L2L1+L2^2+L4L2)
    + (h^3/12)(L2^2L1+L4L2^2) + (h^4/24)L4L2^2L1 (L1, L2, L4 at the step's
    start, midpoint and end) and q the same with b1, b2, b2, b1 on the right.
    L's diagonal is constant, so P's diagonal less 1 is the RK4 polynomial of
    -a*h and of c*h, one scalar each, and p21, q1 and q2 are sums of the node
    and midpoint samples with scalar weights. Two affine scans give mhat, then
    phi2 forced by p21 * mhat + q2. This reorders the arithmetic of a
    step-by-step RK4 that calls m and var at each stage, so each path differs
    from that one by less than 1e-12 of its largest magnitude.
    """
    # float64 throughout, so an overflow is an inf under the caller's errstate
    # and not a Python OverflowError
    M = np.float64(mean_coeff)
    D2 = np.float64(params.D) ** 2
    D2M2 = D2 * M * M
    a = params.A + params.B * M
    c = D2M2 - 2.0 * a
    e = 2.0 * a - 2.0 * D2M2
    z1, z2 = -a * h, c * h
    s = z1 + z2

    gm = D2 * (M * M * m_mid * m_mid + var_mid)
    g = D2 * (M * M * m * m + var)  # b's second row on the nodes
    m0, m1 = m[:-1], m[1:]

    # the scalar weights of the start, midpoint and end samples; (h/6) *
    # (1 + z + z^2/2 + z^3/4) weighs p21's start and q2's start at z = c*h
    # (wc), p21's end and q1's start at z = -a*h (wa)
    sixth = h / 6
    wc = sixth * (1.0 + z2 * (1.0 + z2 * (0.5 + z2 / 4)))
    wa = sixth * (1.0 + z1 * (1.0 + z1 * (0.5 + z1 / 4)))
    p21 = e * (wc * m0 + sixth * (4.0 + s * (2.0 + s / 2 + z1 * z2 / 4)) * m_mid + wa * m1)
    q1 = a * (wa * m0 + sixth * (4.0 + z1 * (2.0 + z1 / 2)) * m_mid + sixth * m1)
    # q2's products of L's lower-left entries with b's first row
    hh = h * sixth
    cross = m_mid * (
        hh * (1.0 + s / 2 + z2 * s / 4) * m0
        + hh * (1.0 + z2 / 2) * m_mid
        + hh * (1.0 + z1 / 2) * m1
    ) + hh * (z1 * z1 / 4) * m0 * m1
    q2 = wc * g[:-1] + sixth * (4.0 + z2 * (2.0 + z2 / 2)) * gm + sixth * g[1:]
    q2 += e * a * cross

    mhat = _affine_scan(_rk4_growth(z1), q1, params.xi_mean)
    forcing = p21 * mhat[:-1] + q2
    return mhat, _affine_scan(_rk4_growth(z2), forcing, params.xi_second_moment)


def _affine_scan(delta: np.float64, q: np.ndarray, y0: float) -> np.ndarray:
    """The path y[0] = y0, y[i+1] = (1 + delta) * y[i] + q[i], overwriting q.

    Hillis-Steele doubling on factors carried less 1 (M equal maps must not
    repeat one rounding of 1 + delta M times), by products and sums only. Before
    pass d the maps from d - 1 on share one composed factor D_d, so the pass
    extends the path's factors by one block and doubles D_d: O(M) factor work,
    with the bits of a pass that composes every map with the one d before it.
    """
    n = len(q)
    path = np.empty(n)  # path[i]: the factor of maps 0..i composed, less 1
    path[:1] = delta
    d = 1
    while d < n:
        grow = 1.0 + delta
        q[d:] += q[:-d] * grow
        path[d : 2 * d] = delta + path[: min(d, n - d)] * grow
        delta = delta + delta * grow
        d *= 2
    return np.concatenate(([y0], y0 + path * y0 + q))


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
    h = _uniform_step(times)
    var = np.asarray(policy.variance_fn(times), dtype=float)
    if not np.all((var > 0.0) & (var < math.inf)):
        raise DomainError("policy variance must be finite and strictly positive on the horizon")
    m = np.asarray(mean_field_fn(times), dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("mean field path must be finite on the horizon")
    # inputs far from the reference scale can overflow the moments; the parts
    # are checked below, so the error names the first one that is lost
    with np.errstate(over="ignore", invalid="ignore"):
        mid = times[:-1] + h / 2
        var_mid = np.asarray(policy.variance_fn(mid), dtype=float)
        m_mid = np.asarray(mean_field_fn(mid), dtype=float)
        mhat, phi2 = _moment_paths(params, policy.mean_coeff, h, var, m, var_mid, m_mid)
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
    # coefficients far from the reference scale can overflow; the columns
    # are checked below, so the error names the first one that is lost
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        riccati = riccati_coefficient(params, times, game)  # a grid past T fails here
        fine = _refined_times(0.0, params.T, grid.dt, refinement)
        # the grid times are every refinement-th node only if the grid spans [0, T]
        if len(fine) != grid.n_steps * refinement + 1:
            raise ParameterError(f"grid of {grid.n_steps} steps does not span [0, {params.T}]")
        offsets, variance = _equilibrium_integrals(params, game, fine)
        solution = EquilibriumSolution(
            game=game,
            times=times,
            riccati=riccati,
            value_offset=offsets[::refinement],
            policy=equilibrium_policy(params, game),
            policy_variance=_exploration_variance(params, _temperatures(params, game)[0], riccati),
            game_value=-0.5 * float(riccati[0]) * params.xi_var + float(offsets[0]),
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
