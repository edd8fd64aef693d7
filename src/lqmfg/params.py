"""Model coefficients and time discretization for the linear-quadratic game."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

_SQUARE_BOUND = math.sqrt(sys.float_info.max)  # the largest float with a finite square
# a field's declared type (a string: annotations are postponed) -> the numbers it takes
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}


class ParameterError(ValueError):
    """Raised when a model parameter violates its admissible range."""


class DomainError(ValueError):
    """Raised when a time argument falls outside the game horizon."""


def check_fields(obj) -> None:
    """Raise ParameterError naming the first field of the dataclass ``obj``
    its type refuses: an ``int`` field takes an integer (numpy's too) and a
    ``float`` field a real number, neither a bool, and the number must be
    finite and small enough to square, as the closed forms and the learner
    do, checked without overflow. Fields of other types are not checked."""
    for f in fields(obj):
        if f.type not in _FIELD_KINDS:
            continue
        value, (kind, noun) = getattr(obj, f.name), _FIELD_KINDS[f.type]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ParameterError(f"{f.name} must be {noun}, got {value!r}")
        # a numpy scalar compared as it is casts the bound to its own type
        if not abs(value.item() if isinstance(value, np.generic) else value) <= _SQUARE_BOUND:
            raise ParameterError(
                f"{f.name} must be finite, of magnitude at most {_SQUARE_BOUND:.4g}"
            )


@dataclass(frozen=True)
class GameParams:
    """Coefficients of the entropy-regularized LQ mean field game.

    Attributes
    ----------
    A : float
        Mean-reversion strength of the drift toward the population mean (1/time).
    B : float
        Control gain in the drift.
    D : float
        Noise gain multiplying the aggregated second moment of the action law.
    Q : float
        Running penalty weight on squared deviation from the population mean.
    Q_bar : float
        Terminal penalty weight.
    lambda_se : float
        Temperature of the self-exploration (Shannon) bonus. Must be positive
        for the closed-form equilibria; the learner additionally accepts 0,
        meaning "no entropy bonus".
    lambda_ce : float
        Temperature of the cross-exploration bonus (exploration of the
        population's action distribution); 0 recovers the Shannon-only game.
    T : float
        Horizon length (time).
    xi_mean : float
        Mean of the initial state.
    xi_second_moment : float
        Second moment of the initial state; must dominate ``xi_mean**2``.
    """

    A: float
    B: float
    D: float
    Q: float
    Q_bar: float
    lambda_se: float
    lambda_ce: float
    T: float
    xi_mean: float
    xi_second_moment: float

    def __post_init__(self):
        check_fields(self)
        for name in ("A", "B", "D", "Q", "Q_bar", "T"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be strictly positive")
        for name in ("lambda_se", "lambda_ce"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be nonnegative")
        # the closed forms divide by the squares of D and lambda_se, and square
        # B/D times the temperature ratio
        low = 1.0 / _SQUARE_BOUND  # its square is still nonzero
        if self.D < low or 0.0 < self.lambda_se < low:
            raise ParameterError(f"D and a positive lambda_se must be at least {low:.4g}")
        ratio = 1.0 + (self.lambda_ce / self.lambda_se if self.lambda_se > 0 else 0.0)
        if not self.B / self.D * ratio <= _SQUARE_BOUND:
            raise ParameterError(
                "B/D times the temperature ratio (lambda_se + lambda_ce)/lambda_se "
                f"must be at most {_SQUARE_BOUND:.4g}"
            )
        if self.xi_second_moment < self.xi_mean**2:
            raise ParameterError(
                "xi_second_moment must be >= xi_mean**2 (nonnegative initial variance)"
            )

    @property
    def xi_var(self) -> float:
        return self.xi_second_moment - self.xi_mean**2

    def require_positive_temperature(self) -> None:
        """Closed-form equilibrium objects need lambda_se > 0."""
        if self.lambda_se <= 0:
            raise ParameterError(
                "lambda_se must be strictly positive for equilibrium policies "
                "(a zero temperature concentrates the action law to a point mass)"
            )


# Reference model coefficients used by the built-in experiment configuration.
REFERENCE_MODEL = dict(
    A=2.0, B=3.0, D=2.0, Q=3.0, Q_bar=2.0,
    lambda_se=1.0, lambda_ce=0.0, T=0.1,
    xi_mean=0.1, xi_second_moment=1.0,
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with step dt = T / n_steps."""

    n_steps: int
    dt: float

    def __post_init__(self):
        check_fields(self)
        if self.n_steps < 1:
            raise ParameterError("n_steps must be >= 1")
        if not self.dt > 0:
            raise ParameterError("dt must be positive")

    @classmethod
    def from_horizon(cls, T: float, n_steps: int) -> "TimeGrid":
        return cls(n_steps=n_steps, dt=T / max(n_steps, 1))  # n_steps < 1 is rejected

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        """All N+1 grid times, including both endpoints."""
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def step_times(self) -> np.ndarray:
        """Left endpoints of the N steps (where per-step policies apply)."""
        return self.dt * np.arange(self.n_steps)

