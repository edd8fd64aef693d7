"""Entropy-regularized linear-quadratic mean field games.

Closed-form equilibria for the Shannon and enhanced-exploration game
variants, Euler simulation of the controlled dynamics under Gaussian
feedback policies, and a model-free mean-field policy-gradient learner with
exploration, plus the harness reproducing the reference convergence
experiments.
"""

# Defined before the submodule imports: the harness records it in manifests.
__version__ = "0.1.0"

from .analytic import (
    GaussianFeedbackPolicy,
    equilibrium_policy,
    feedback_policy_payoff,
    riccati_coefficient,
    solve_equilibrium,
)
from .config import ConfigError, load_config, save_config
from .harness import PayoffEvaluator, reference_policy, reproduce
from .learner import LearnerConfig, estimate_gradient, gradient_step
from .params import DomainError, GameParams, ParameterError, TimeGrid
from .simulate import (
    PolicyParams,
    discrete_moments,
    discretize_policy,
    sample_rewards,
    simulate_states,
)

__all__ = [
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
    "gradient_step",
    "load_config",
    "reference_policy",
    "reproduce",
    "riccati_coefficient",
    "sample_rewards",
    "simulate_states",
    "save_config",
    "solve_equilibrium",
]
