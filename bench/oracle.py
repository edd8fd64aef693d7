"""Independent closed forms and moment recursions for the benchmark's checks.

This module uses numpy only and imports nothing from ``lqmfg``: it is the
reference the benchmark compares the package against, so it derives every
quantity on its own and integrates with different numerics (Gauss-Legendre
quadrature and an exact exponential integrator, where the package uses
trapezoid sums and RK4).

A game is a plain mapping with the keys A, B, D, Q, Q_bar, lambda_se,
lambda_ce, T, xi_mean and xi_second_moment. The population mean is the
constant xi_mean (the equilibrium mean is invariant), so a feedback policy
N(k (m - x), var(t)) leaves every agent's mean at m and only the variance
kappa(t) = E[(X_t - m)^2] moves:

    kappa' = r kappa + D^2 var(t),   r = -2 (A + B k) + D^2 k^2.

Run ``python3 bench/oracle.py`` for the self-test against brute-force Monte
Carlo and finite differences.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _gauss_legendre(a: float, b: float, panels: int):
    """Composite 8-point Gauss-Legendre nodes and weights on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return mid + half * _GL_X, half * _GL_W


def _integral(fn, a: float, b: float, panels: int = 64) -> float:
    nodes, weights = _gauss_legendre(a, b, panels)
    return float(np.sum(fn(nodes) * weights))


def temperature(g, game: str) -> float:
    return g["lambda_se"] + (g["lambda_ce"] if game == "ee" else 0.0)


def _ratio(g, game: str) -> float:
    return 1.0 if game == "se" else temperature(g, game) / g["lambda_se"]


def decay_rate(g, game: str) -> float:
    """rho in eta' = rho eta - Q, from the HJB equation of the quadratic ansatz."""
    return 2.0 * g["A"] + _ratio(g, game) * g["B"] ** 2 / g["D"] ** 2


def riccati(g, t, game: str):
    """Value curvature eta(t) solving eta' = rho eta - Q with eta(T) = Q_bar."""
    rho = decay_rate(g, game)
    fixed = g["Q"] / rho
    return fixed + (g["Q_bar"] - fixed) * np.exp(-rho * (g["T"] - np.asarray(t, float)))


def gain(g, game: str) -> float:
    """Equilibrium feedback gain: maximizer of the HJB over the action mean."""
    return _ratio(g, game) * g["B"] / g["D"] ** 2


def policy_variance(g, t, game: str):
    """Equilibrium exploration variance lambda / (D^2 eta(t))."""
    return temperature(g, game) / (g["D"] ** 2 * riccati(g, t, game))


def game_value(g) -> float:
    """Shannon-game value -eta(0)/2 Var[xi] + gamma(0).

    gamma(0) = int_0^T lambda/2 log(2 pi lambda / (D^2 eta(s))) ds, the
    constant term of the HJB equation, by Gauss-Legendre quadrature.
    """
    lam = g["lambda_se"]
    var0 = g["xi_second_moment"] - g["xi_mean"] ** 2
    gamma0 = _integral(
        lambda s: 0.5 * lam * np.log(2.0 * math.pi * lam / (g["D"] ** 2 * riccati(g, s, "se"))),
        0.0, g["T"],
    )
    return -0.5 * float(riccati(g, 0.0, "se")) * var0 + gamma0


def variance_path(g, k: float, var_fn, n_intervals: int):
    """kappa at the n_intervals + 1 uniform times of [0, T], exactly integrated.

    Each interval advances kappa by exp(r h) and adds the source integral
    int exp(r (t_{i+1} - s)) D^2 var(s) ds, taken by Gauss-Legendre.
    """
    r = -2.0 * (g["A"] + g["B"] * k) + g["D"] ** 2 * k**2
    h = g["T"] / n_intervals
    nodes, weights = _gauss_legendre(0.0, g["T"], n_intervals)
    ends = h * np.arange(1, n_intervals + 1)[:, None]
    sources = np.sum(np.exp(r * (ends - nodes)) * g["D"] ** 2 * var_fn(nodes) * weights, axis=1)
    grow = math.exp(r * h)
    kappa = np.empty(n_intervals + 1)
    kappa[0] = g["xi_second_moment"] - g["xi_mean"] ** 2
    for i in range(n_intervals):
        kappa[i + 1] = grow * kappa[i] + sources[i]
    return np.linspace(0.0, g["T"], n_intervals + 1), kappa


def _fine_intervals(g, k: float, multiple: int) -> int:
    """Even interval count, a multiple of ``multiple``, with |r| h <= 0.02."""
    r = abs(-2.0 * (g["A"] + g["B"] * k) + g["D"] ** 2 * k**2)
    target = max(2000, math.ceil(r * g["T"] / 0.02))
    step = multiple if multiple % 2 == 0 else 2 * multiple
    return step * math.ceil(target / step)


def state_variance(g, n_steps: int, game: str) -> np.ndarray:
    """Equilibrium Var[X] at the n_steps + 1 grid times of [0, T]."""
    k = gain(g, game)
    m = _fine_intervals(g, k, n_steps)
    _, kappa = variance_path(g, k, lambda s: policy_variance(g, s, game), m)
    return kappa[:: m // n_steps]


def payoff(g, k: float, var_fn) -> float:
    """Expected Shannon-observable payoff of N(k (m - x), var_fn(t)):
    -Q/2 int kappa + lambda_se/2 int log(2 pi e var) - Q_bar/2 kappa(T)."""
    m = _fine_intervals(g, k, 2)
    times, kappa = variance_path(g, k, var_fn, m)
    h = times[1] - times[0]
    simpson = h / 3.0 * (kappa[0] + kappa[-1] + 4.0 * kappa[1:-1:2].sum() + 2.0 * kappa[2:-1:2].sum())
    entropy = _integral(lambda s: np.log(2.0 * math.pi * math.e * var_fn(s)), 0.0, g["T"])
    return -0.5 * g["Q"] * simpson + 0.5 * g["lambda_se"] * entropy - 0.5 * g["Q_bar"] * kappa[-1]


def discrete_expected_reward(g, n_steps: int, k: float, sigma2, m_path) -> float:
    """Exact expectation of the Euler-scheme reward (first and second moments).

    X_{s+1} = X_s + (A + B k)(m_s - X_s) dt + D sqrt(k^2 (m_s - X_s)^2 + sigma2_s) dW_s,
    reward sum_s dt (-Q/2 (X_s - m_s)^2 + lambda_se/2 log(2 pi e sigma2_s))
    - Q_bar/2 (X_N - m_N)^2. Tracks the state's mean and variance.
    """
    dt = g["T"] / n_steps
    a = g["A"] + g["B"] * k
    mean = g["xi_mean"]
    var = g["xi_second_moment"] - g["xi_mean"] ** 2
    total = 0.0
    for s in range(n_steps):
        gap2 = var + (m_path[s] - mean) ** 2
        total += dt * (-0.5 * g["Q"] * gap2 + 0.5 * g["lambda_se"] * math.log(2.0 * math.pi * math.e * sigma2[s]))
        mean, var = (
            mean + a * (m_path[s] - mean) * dt,
            (1.0 - a * dt) ** 2 * var + dt * g["D"] ** 2 * (k**2 * gap2 + sigma2[s]),
        )
    return float(total - 0.5 * g["Q_bar"] * (var + (m_path[-1] - mean) ** 2))


def _monte_carlo_reward(g, n_steps, k, sigma2, m_path, n_paths, seed):
    """Brute-force Euler simulation of the reward (mean, stderr)."""
    gen = np.random.default_rng(seed)
    dt = g["T"] / n_steps
    x = g["xi_mean"] + math.sqrt(g["xi_second_moment"] - g["xi_mean"] ** 2) * gen.standard_normal(n_paths)
    total = np.zeros(n_paths)
    for s in range(n_steps):
        gap = m_path[s] - x
        total += dt * (-0.5 * g["Q"] * gap**2 + 0.5 * g["lambda_se"] * math.log(2.0 * math.pi * math.e * sigma2[s]))
        noise = g["D"] * np.sqrt(k**2 * gap**2 + sigma2[s]) * math.sqrt(dt) * gen.standard_normal(n_paths)
        x = x + (g["A"] + g["B"] * k) * gap * dt + noise
    total -= 0.5 * g["Q_bar"] * (x - m_path[-1]) ** 2
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n_paths))


REFERENCE_GAME = dict(
    A=2.0, B=3.0, D=2.0, Q=3.0, Q_bar=2.0, lambda_se=1.0, lambda_ce=0.0,
    T=0.1, xi_mean=0.1, xi_second_moment=1.0,
)


def self_test() -> list:
    """Checks of the oracle against finite differences and Monte Carlo.

    Returns the failures as messages; an empty list means every check held.
    """
    failures = []

    def check(ok, message):
        if not ok:
            failures.append(message)

    ee_game = dict(REFERENCE_GAME, lambda_ce=1.0)
    steep = dict(REFERENCE_GAME, A=0.7, B=3.5, D=0.8, Q=4.0, T=0.6, xi_mean=-0.4)

    # 1. eta solves its ODE (central differences) and meets the terminal value.
    for g, game in ((REFERENCE_GAME, "se"), (ee_game, "ee"), (steep, "se"), (steep, "ee")):
        ts = np.linspace(0.0, g["T"], 20001)
        eta = riccati(g, ts, game)
        fd = (eta[2:] - eta[:-2]) / (2.0 * (ts[1] - ts[0]))
        residual = np.max(np.abs(fd - (decay_rate(g, game) * eta[1:-1] - g["Q"])) / eta[1:-1])
        check(residual < 1e-5, f"eta ODE residual {residual:.2e} ({game})")
        check(riccati(g, g["T"], game) == g["Q_bar"], f"eta(T) != Q_bar ({game})")

    # 2. Verification: the equilibrium policy's payoff is the game value, and
    # no nearby policy (gain or variance schedule moved) does better to first order.
    for g in (REFERENCE_GAME, steep):
        k = gain(g, "se")

        def var_fn(s, g=g):
            return policy_variance(g, s, "se")

        best = payoff(g, k, var_fn)
        value = game_value(g)
        check(abs(best - value) <= 1e-9 * abs(value), f"payoff {best!r} != game value {value!r}")
        moves = (
            lambda d: payoff(g, k + d, var_fn),
            lambda d: payoff(g, k, lambda s: (1.0 + d) * var_fn(s)),
            lambda d: payoff(g, k, lambda s: (1.0 + d * (s / g["T"] - 0.5)) * var_fn(s)),
        )
        for j, move in enumerate(moves):
            up, down = move(1e-3), move(-1e-3)
            check(up < best and down < best, f"equilibrium not a local maximum (move {j})")
            check(abs(up - down) <= 1e-2 * (2.0 * best - up - down), f"first-order term at equilibrium (move {j})")

    # 3. The exact discrete expectation against a brute-force Euler simulation,
    # off equilibrium and against a moving mean path.
    sigma2 = np.array([0.3, 0.2, 0.25, 0.1, 0.15])
    m_path = np.array([0.0, 0.05, 0.2, -0.1, 0.3, 0.1])
    exact = discrete_expected_reward(REFERENCE_GAME, 5, 0.9, sigma2, m_path)
    mc, se = _monte_carlo_reward(REFERENCE_GAME, 5, 0.9, sigma2, m_path, 400_000, 12345)
    check(abs(exact - mc) < 4.0 * se, f"discrete expectation {exact!r} vs Monte Carlo {mc!r} +- {se!r}")

    # 4. The discrete recursion converges to the continuous payoff and state
    # variance at first order in the step.
    for g in (REFERENCE_GAME, steep):
        k = gain(g, "se")
        cont = payoff(g, k, lambda s: policy_variance(g, s, "se"))
        kappa_t = state_variance(g, 2, "se")[-1]
        errs, var_errs = [], []
        for n in (400, 800):
            ts = g["T"] / n * np.arange(n)
            sig = policy_variance(g, ts, "se")
            errs.append(abs(discrete_expected_reward(g, n, k, sig, np.full(n + 1, g["xi_mean"])) - cont))
            dt, var = g["T"] / n, g["xi_second_moment"] - g["xi_mean"] ** 2
            for s in range(n):
                var = (1.0 - (g["A"] + g["B"] * k) * dt) ** 2 * var + dt * g["D"] ** 2 * (k**2 * var + sig[s])
            var_errs.append(abs(var - kappa_t))
        for name, e in (("payoff", errs), ("state variance", var_errs)):
            check(1.7 < e[0] / e[1] < 2.3, f"discrete {name} not first order: errors {e}")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print(f"FAIL {p}")
    print("oracle self-test:", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)
