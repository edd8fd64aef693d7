import numpy as np
import pytest

from lqmfg import ParameterError, TimeGrid

from conftest import make_params


@pytest.mark.parametrize("name", ["A", "B", "D", "Q", "Q_bar", "T"])
def test_positive_coefficients_enforced(name):
    with pytest.raises(ParameterError, match=name):
        make_params(**{name: 0.0})
    with pytest.raises(ParameterError, match=name):
        make_params(**{name: -1.0})


def test_temperatures_nonnegative():
    with pytest.raises(ParameterError, match="lambda_se"):
        make_params(lambda_se=-0.1)
    with pytest.raises(ParameterError, match="lambda_ce"):
        make_params(lambda_ce=-0.1)
    # zero Shannon temperature is constructible (the learner's no-bonus case)
    assert make_params(lambda_se=0.0).lambda_se == 0.0


def test_initial_moments_must_be_consistent():
    with pytest.raises(ParameterError, match="xi_second_moment"):
        make_params(xi_mean=1.0, xi_second_moment=0.5)
    p = make_params(xi_mean=0.3, xi_second_moment=0.09)
    assert p.xi_var == 0.0


def test_xi_var(params):
    assert params.xi_var == pytest.approx(0.99, abs=1e-15)


def test_zero_temperature_rejected_for_equilibrium_objects():
    p = make_params(lambda_se=0.0)
    with pytest.raises(ParameterError, match="lambda_se"):
        p.require_positive_temperature()


def test_grid_product_recovers_horizon():
    for n in (1, 5, 7, 500):
        g = TimeGrid.from_horizon(0.1, n)
        assert g.n_steps * g.dt == pytest.approx(0.1, rel=1e-15)
        assert len(g.times()) == n + 1
        assert g.times()[-1] == pytest.approx(0.1, rel=1e-15)


def test_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(n_steps=0, dt=0.1)
    with pytest.raises(ParameterError):
        TimeGrid(n_steps=5, dt=0.0)


def test_step_times_are_left_endpoints():
    g = TimeGrid.from_horizon(0.1, 5)
    np.testing.assert_allclose(g.step_times(), [0.0, 0.02, 0.04, 0.06, 0.08])
