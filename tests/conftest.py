import os

import numpy as np
import pytest

from lqmfg import GameParams, TimeGrid, rng, sample_rewards
from lqmfg.simulate import _fill, mean_and_stderr, scale_noise


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env(**overrides):
    """The environment of a ``python -m lqmfg.cli`` child process: this one,
    with the source tree first on PYTHONPATH and ``overrides`` set."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""), **overrides}


@pytest.fixture
def params():
    """Reference model coefficients (Shannon temperature 1)."""
    return GameParams(
        A=2.0, B=3.0, D=2.0, Q=3.0, Q_bar=2.0,
        lambda_se=1.0, lambda_ce=0.0, T=0.1,
        xi_mean=0.1, xi_second_moment=1.0,
    )


@pytest.fixture
def grid():
    return TimeGrid.from_horizon(0.1, 5)


def make_params(**overrides):
    base = dict(
        A=2.0, B=3.0, D=2.0, Q=3.0, Q_bar=2.0,
        lambda_se=1.0, lambda_ce=0.0, T=0.1,
        xi_mean=0.1, xi_second_moment=1.0,
    )
    base.update(overrides)
    return GameParams(**base)


def random_params(rng_: np.random.Generator, **overrides):
    """Valid random coefficients for property-style checks."""
    base = dict(
        A=rng_.uniform(0.5, 4.0),
        B=rng_.uniform(0.5, 4.0),
        D=rng_.uniform(0.5, 3.0),
        Q=rng_.uniform(0.5, 5.0),
        Q_bar=rng_.uniform(0.5, 5.0),
        lambda_se=rng_.uniform(0.2, 3.0),
        lambda_ce=rng_.uniform(0.0, 3.0),
        T=rng_.uniform(0.05, 1.0),
        xi_mean=rng_.uniform(-1.0, 1.0),
    )
    base["xi_second_moment"] = base["xi_mean"] ** 2 + rng_.uniform(0.0, 2.0)
    base.update(overrides)
    return GameParams(**base)


def mc_reward(params, grid, policy, path, n_paths, seed):
    """Monte Carlo (mean, stderr) of the reward against the mean path
    ``path`` over n_paths paths of the seed's trajectory substream."""
    stream = rng.substream(seed, rng.TRAJECTORY)
    return mean_and_stderr(sample_rewards(params, grid, policy, path, n_paths, stream))


def draw_noise(stream, params, dt, n_paths, n_steps):
    """Initial states and Brownian increments of n_paths paths in the fixed
    batch layout (normals filled path by path), with dW Fortran-ordered so
    that the kernel's per-step columns are contiguous."""
    z0, z = np.empty(n_paths), np.empty((n_paths, n_steps))
    _fill(stream, z0, z)
    return scale_noise(params, dt, z0, np.asfortranarray(z))
