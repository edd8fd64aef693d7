"""Command-line entry point.

Subcommands: ``solve`` (closed-form equilibrium on the grid), ``simulate``
(Monte Carlo payoff of a policy), ``learn`` (one learner configuration),
``reproduce`` (the built-in temperature sweep with report tables).

Exit codes: 0 success, 2 configuration error, 3 runtime error (an I/O
failure, a learner divergence or an allocation too large for memory), 4 a
``--check`` threshold failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from functools import partial

import numpy as np

from . import harness
from .harness import _fmt
from .analytic import solve_equilibrium
from .config import (
    ConfigError,
    ExperimentConfig,
    _number,
    _numbers,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
    read_json,
)
from .learner import LearnerDivergence
from .params import DomainError, ParameterError
from .simulate import PolicyParams, mean_and_stderr, sample_rewards
from . import rng as _rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4

OUT_DIR_ENV = "LQMFG_OUT_DIR"


_MODEL_FLAGS = (
    ("--lambda-se", "game.lambda_se", "self-exploration temperature"),
    ("--lambda-ce", "game.lambda_ce", "cross-exploration temperature"),
)


def _add_common(parser: argparse.ArgumentParser, *aliases, out_dir=False) -> None:
    """The config flags; each alias ``(flag, key, help)`` makes ``flag V``
    the override ``key=V``, applied in command-line order with ``--set``."""
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="dotted-key override, e.g. game.A=2.5 (repeatable)",
    )
    for flag, key, text in (("--seed", "seed", "master seed"), *aliases):
        parser.add_argument(
            flag, dest="overrides", action="append", type=f"{key}={{}}".format,
            metavar=key.rsplit(".", 1)[-1].upper(), help=f"{text} (--set {key}=...)",
        )
    if out_dir:
        parser.add_argument(
            "--out-dir",
            default=os.environ.get(OUT_DIR_ENV, "."),
            help=f"output directory (default: ${OUT_DIR_ENV} or '.')",
        )
    parser.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqmfg",
        description="Entropy-regularized LQ mean field games: closed forms, "
        "simulation, and policy-gradient learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="evaluate the closed-form equilibrium")
    _add_common(p, *_MODEL_FLAGS)
    p.add_argument("--game", choices=("se", "ee"), default="se")
    p.add_argument("--csv", help="also dump the table to this CSV path")

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo payoff of a policy",
        description="Estimates the sampled objective (quadratic penalties "
        "plus the Shannon exploration bonus) for the chosen policy. This is "
        "the observable the learner optimizes; it matches solve's game value "
        "for the 'se' equilibrium, while an 'ee' policy is scored on the "
        "same observable rather than on the enhanced objective.",
    )
    _add_common(p, *_MODEL_FLAGS)
    p.add_argument(
        "--policy", default="se",
        help="'se', 'ee' (closed-form equilibrium) or a JSON file with "
        "fields m_hat and sigma2",
    )
    p.add_argument("--n-paths", type=int, default=10000)
    p.add_argument("--dump-paths", help="optional per-path reward CSV")

    p = sub.add_parser("learn", help="run the learner for one temperature")
    _add_common(p, *_MODEL_FLAGS, out_dir=True)

    p = sub.add_parser("reproduce", help="run the built-in temperature sweep")
    _add_common(p, out_dir=True)
    p.add_argument(
        "--check", action="store_true",
        help="fail (exit 4) when a convergence threshold is violated",
    )
    return parser


def _load(args) -> ExperimentConfig:
    data = read_json(args.config, "config") if args.config else config_to_dict(default_config())
    return config_from_dict(apply_overrides(data, args.overrides))


def _cmd_solve(args) -> int:
    config = _load(args)
    solution = solve_equilibrium(config.game, args.game, config.grid)
    print(f"# equilibrium ({args.game} game)")
    print(f"policy_gain {_fmt(solution.policy.mean_coeff)}")
    print(f"game_value {_fmt(solution.game_value)}")
    print(f"m_star {_fmt(solution.m_star)}")
    header = ["t", "riccati", "value_offset", "policy_variance", "state_variance"]
    rows = list(zip(
        solution.times.tolist(), solution.riccati.tolist(), solution.value_offset.tolist(),
        solution.policy_variance.tolist(), solution.state_variance.tolist(),
    ))
    print(" ".join(header))
    for row in rows:
        print(" ".join(_fmt(v) for v in row))
    if args.csv:
        harness.write_table(args.csv, header, [(",".join(["%.17g"] * len(header)) + "\r\n", rows)])
        if args.verbose:
            print(f"wrote {args.csv}", file=sys.stderr)
    return EXIT_OK


def _policy_from_arg(arg: str, config: ExperimentConfig) -> PolicyParams:
    from .analytic import equilibrium_policy
    from .simulate import discretize_policy

    if arg in ("se", "ee"):
        return discretize_policy(equilibrium_policy(config.game, arg), config.grid)
    data = read_json(arg, "policy file")
    if not isinstance(data, dict) or "m_hat" not in data or "sigma2" not in data:
        raise ConfigError("policy file must contain fields m_hat and sigma2")
    return PolicyParams(
        m_hat=_number(data["m_hat"], "m_hat"), sigma2=_numbers(data["sigma2"], "sigma2")
    )


def _write_rows(fh, start, rewards):
    """``on_chunk`` callback: a chunk's rewards as csv.writer's rows, formatted with one ``%``."""
    cells = [None] * (2 * len(rewards))
    cells[0::2] = range(start, start + len(rewards))
    cells[1::2] = rewards.tolist()
    fh.write(("%d,%.17g\r\n" * len(rewards)) % tuple(cells))


def _sample(config, policy, n_paths, on_chunk=None, policy_file=False):
    mean_field = np.full(config.grid.n_steps + 1, config.game.xi_mean)
    # a game far from the reference scale can overflow the rollout; the
    # check below names it instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rewards = sample_rewards(
            config.game, config.grid, policy, mean_field, n_paths,
            _rng.substream(config.seed, _rng.TRAJECTORY), on_chunk,
        )
        mean, stderr = mean_and_stderr(rewards)
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        # name the keys the rollout reads
        policy_keys = " (or the policy file's m_hat and sigma2)" if policy_file else ""
        raise ParameterError(
            "game: the sampled rewards are not finite; game.A, game.B, game.D, game.Q, "
            "game.Q_bar, game.xi_mean, game.xi_second_moment or game.lambda_se"
            f"{policy_keys} is too large for the simulation"
        )
    return mean, stderr


def _cmd_simulate(args) -> int:
    config = _load(args)
    if args.n_paths < 2:
        raise ConfigError("--n-paths must be >= 2")
    policy = _policy_from_arg(args.policy, config)
    sample = partial(_sample, config, policy, args.n_paths,
                     policy_file=args.policy not in ("se", "ee"))
    if not args.dump_paths:
        mean, stderr = sample()
    else:
        # rows go, as chunks finish, to a file that replaces the target once all are finite
        with harness.staged(args.dump_paths) as fh:
            fh.write("path,reward\r\n")
            mean, stderr = sample(partial(_write_rows, fh))
    print(f"mean {_fmt(mean)}")
    print(f"stderr {_fmt(stderr)}")
    print(f"n_paths {args.n_paths}")
    print(f"seed {config.seed}")
    return EXIT_OK


def _cmd_learn(args) -> int:
    config = _load(args)
    lam = config.game.lambda_se
    report = harness.reproduce(dataclasses.replace(config, lambda_se_values=(lam,)), args.out_dir)
    arm = report.arms[0]
    print(f"lambda_se {_fmt(lam)}")
    last = arm.result.trace.records[-1]
    print(f"learned_m_hat {_fmt(last.m_hat)}")
    print(f"final_rel_error {_fmt(last.rel_error)}")
    if args.verbose:
        print(f"wrote tables under {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report = harness.reproduce(_load(args), args.out_dir)
    for arm in report.arms:
        last = arm.result.trace.records[-1]
        print(
            f"lambda_se {_fmt(arm.lambda_se)} learned_m_hat "
            f"{_fmt(last.m_hat)} final_rel_error {_fmt(last.rel_error)}"
        )
    if args.check:
        failures = harness.check_thresholds(report)
        for message in failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        if failures:
            return EXIT_CHECK
        print("all checks passed")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "learn": _cmd_learn,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, LearnerDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
