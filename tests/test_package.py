"""The package's exported names, pinned: a name leaves `__all__` only with this list."""

import lqmfg

PUBLIC = [
    "ConfigError",
    "DomainError",
    "GameParams",
    "GaussianFeedbackPolicy",
    "LearnerConfig",
    "ParameterError",
    "PayoffEvaluator",
    "PolicyParams",
    "TimeGrid",
    "discrete_moments",
    "discretize_policy",
    "equilibrium_policy",
    "estimate_gradient",
    "feedback_policy_payoff",
    "game_value",
    "gradient_step",
    "load_config",
    "reference_policy",
    "reproduce",
    "riccati_coefficient",
    "sample_rewards",
    "save_config",
    "simulate_states",
    "solve_equilibrium",
]


def test_all_is_the_public_surface():
    assert sorted(lqmfg.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(lqmfg, name) is not None, name
