"""The benchmark's four workloads: inputs, timed calls and output checks.

Each workload is built from its seed in ``__init__`` (part of set-up time),
makes its calls into ``lqmfg`` in ``run`` (the timed part) and checks the
outputs in ``check`` against ``oracle`` or against properties the method
must have. An operation is one learner arm, one CLI invocation or one
closed-form case; ``failed`` counts operations that raised an expected,
named error.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics

import numpy as np

from lqmfg import analytic, config, harness
from lqmfg.config import config_to_dict, default_config
from lqmfg.params import DomainError

import oracle

ERROR_THRESHOLD = 0.05  # relative-error gate of the learning experiment
CSV_TABLES = ("learning_curve.csv", "variance_schedule.csv", "mean_field.csv")


def _game(params) -> dict:
    return {name: getattr(params, name) for name in oracle.REFERENCE_GAME}


def _close(actual, expected, rel) -> bool:
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return bool(np.all(np.abs(actual - expected) <= rel * np.abs(expected)))


class Reproduce:
    """``lqmfg reproduce`` at the built-in configuration, writing its report."""

    def __init__(self, seed, out_dir, call_cli):
        self.out_dir = os.path.join(out_dir, "report")
        self.argv = ["reproduce", "--seed", str(seed), "--out-dir", self.out_dir]
        self.call_cli = call_cli
        self.config = default_config()
        self.attempted = 1
        self.failed = 0

    def run(self):
        return self.call_cli(self.argv)

    def check(self, outputs):
        code, _ = outputs
        if code != 0:
            return [f"lqmfg reproduce exited {code}"], {}
        failures = []
        cfg = self.config
        lams = cfg.lambda_se_values
        n_steps, n_outer, n_inner = cfg.grid.n_steps, cfg.learner.n_outer, cfg.learner.n_inner
        floor = cfg.learner.sigma_floor
        g0 = _game(cfg.game)
        tables = {}
        for name in CSV_TABLES:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                tables[name] = fh.read()
        rows = {name: [line.split(",") for line in data.decode().splitlines()[1:]]
                for name, data in tables.items()}

        curve = rows["learning_curve.csv"]
        if len(curve) != len(lams) * n_outer * (n_inner + 1):
            failures.append(f"learning_curve.csv has {len(curve)} rows")
        if not all(math.isfinite(float(r[4])) for r in curve):
            failures.append("non-finite rel_error in learning_curve.csv")

        schedule = rows["variance_schedule.csv"]
        if len(schedule) != len(lams) * n_steps:
            failures.append(f"variance_schedule.csv has {len(schedule)} rows")
        for lam_text, s, learned, analytic_s2 in schedule:
            lam, s = float(lam_text), int(s)
            if lam > 0:
                g = dict(g0, lambda_se=lam)
                expected = float(oracle.policy_variance(g, s * cfg.grid.dt, "se"))
            else:
                expected = floor
            if not _close(float(analytic_s2), expected, 1e-12):
                failures.append(f"analytic_sigma2 {analytic_s2} != oracle {expected!r} (lambda {lam}, s {s})")
            if not float(learned) >= floor:
                failures.append(f"learned variance {learned} below the floor (lambda {lam}, s {s})")

        mean_field = rows["mean_field.csv"]
        if len(mean_field) != len(lams) * (n_outer + 1) * (n_steps + 1):
            failures.append(f"mean_field.csv has {len(mean_field)} rows")
        for lam_text, k, s, m in mean_field:
            # the fictitious-play path starts at xi_mean and keeps it for
            # every step before round k, whatever gain was learned
            if int(s) < int(k) and float(m) != cfg.game.xi_mean:
                failures.append(f"mean path (lambda {lam_text}, k {k}, s {s}) = {m}, not xi_mean")

        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        for arm in summary["arms"]:
            lam = arm["lambda_se"]
            g = dict(g0, lambda_se=lam)
            if lam > 0:
                expected, rel = oracle.game_value(g), _trapezoid_tolerance(g, "se", n_steps)
            else:
                var0 = g["xi_second_moment"] - g["xi_mean"] ** 2
                expected, rel = -0.5 * float(oracle.riccati(g, 0.0, "se")) * var0, 1e-12
            if not _close(arm["reference_game_value"], expected, rel):
                failures.append(f"reference_game_value {arm['reference_game_value']!r} != oracle {expected!r}")
        digest = hashlib.sha256(b"".join(tables[name] for name in CSV_TABLES)).hexdigest()
        return failures, {"csv_sha256": digest}


class SeedSweep:
    """``harness.run_arm`` for lambda_se in {1, 3} over a block of seeds,
    each arm cut to the rounds the convergence-speed criterion gates on."""

    SEEDS_PER_ROUND = 5
    GATED_ROUNDS = {1.0: 5, 3.0: 3}

    def __init__(self, seed, out_dir, call_cli):
        self.configs = []
        for s in range(seed, seed + self.SEEDS_PER_ROUND):
            for lam, rounds in self.GATED_ROUNDS.items():
                data = config_to_dict(default_config())
                data["lambda_se_values"] = [lam]
                data["seed"] = s
                data["learner"]["n_outer"] = rounds
                self.configs.append((lam, config.config_from_dict(data)))
        self.attempted = len(self.configs)
        self.failed = 0

    def run(self):
        return [harness.run_arm(cfg, lam) for lam, cfg in self.configs]

    def check(self, arms):
        failures = []
        best = {lam: [] for lam in self.GATED_ROUNDS}
        for (lam, cfg), arm in zip(self.configs, arms):
            errors = np.array([r.rel_error for r in arm.result.trace.records])
            if errors.size != cfg.learner.n_outer * (cfg.learner.n_inner + 1):
                failures.append(f"seed {cfg.seed} lambda {lam}: {errors.size} trace records")
                continue
            if not np.all(np.isfinite(errors)):
                failures.append(f"seed {cfg.seed} lambda {lam}: non-finite relative error")
            end_of_round = errors.reshape(cfg.learner.n_outer, -1)[:, -1]
            best[lam].append(float(end_of_round.min()))
        for lam, values in best.items():
            median = statistics.median(values) if values else math.inf
            if not median < ERROR_THRESHOLD:
                failures.append(
                    f"lambda {lam}: median best end-of-round error {median:.4f} "
                    f"within {self.GATED_ROUNDS[lam]} rounds is not below {ERROR_THRESHOLD}"
                )
        return failures, {}


class Simulate:
    """``lqmfg simulate --policy se --dump-paths`` on a 50-step grid."""

    N_STEPS = 50
    N_PATHS = 1 << 20

    def __init__(self, seed, out_dir, call_cli):
        self.dump = os.path.join(out_dir, "rewards.csv")
        self.argv = [
            "simulate", "--policy", "se", "--seed", str(seed),
            "--set", f"grid.n_steps={self.N_STEPS}",
            "--n-paths", str(self.N_PATHS), "--dump-paths", self.dump,
        ]
        self.call_cli = call_cli
        self.game = _game(default_config().game)
        self.attempted = 1
        self.failed = 0

    def run(self):
        return self.call_cli(self.argv)

    def check(self, outputs):
        code, text = outputs
        if code != 0:
            return [f"lqmfg simulate exited {code}"], {}
        failures = []
        printed = dict(line.split(" ", 1) for line in text.splitlines())
        mean, stderr = float(printed["mean"]), float(printed["stderr"])
        table = np.loadtxt(self.dump, delimiter=",", skiprows=1)
        rewards = table[:, 1]
        dump_bytes = os.path.getsize(self.dump)
        if table.shape[0] != self.N_PATHS or not np.array_equal(table[:, 0], np.arange(self.N_PATHS)):
            failures.append(f"dump has {table.shape[0]} rows, expected paths 0..{self.N_PATHS - 1}")
        if float(rewards.mean()) != mean:
            failures.append(f"printed mean {mean!r} != dumped mean {float(rewards.mean())!r}")
        if float(rewards.std(ddof=1) / np.sqrt(rewards.size)) != stderr:
            failures.append("printed stderr differs from the dumped rewards")
        g, n = self.game, self.N_STEPS
        sigma2 = oracle.policy_variance(g, g["T"] / n * np.arange(n), "se")
        exact = oracle.discrete_expected_reward(
            g, n, oracle.gain(g, "se"), sigma2, np.full(n + 1, g["xi_mean"])
        )
        if not abs(mean - exact) <= 5.0 * stderr:
            failures.append(f"mean {mean!r} is {abs(mean - exact) / stderr:.1f} stderr from the exact {exact!r}")
        return failures, {"dump_bytes": dump_bytes}


# Parameter ranges of the property tests' random admissible games.
RANGES = dict(
    A=(0.5, 4.0), B=(0.5, 4.0), D=(0.5, 3.0), Q=(0.5, 5.0), Q_bar=(0.5, 5.0),
    lambda_se=(0.2, 3.0), lambda_ce=(0.0, 3.0), T=(0.05, 1.0), xi_mean=(-1.0, 1.0),
)
MAX_GROWTH = 50.0  # cap on r*T, so the equilibrium state variance stays finite


def _overshoots(T: float, n_steps: int) -> bool:
    """The last grid time n * (T / n) lands above the horizon T."""
    return n_steps * (T / n_steps) > T


def _growth(g, game) -> float:
    k = oracle.gain(g, game)
    return (-2.0 * (g["A"] + g["B"] * k) + g["D"] ** 2 * k**2) * g["T"]


def _draw_game(gen, n_steps, game) -> dict:
    """Random admissible game on which the grid stays inside the horizon.

    Grids that overshoot the horizon are redrawn: whether a draw overshoots
    depends on the seed, and a failure count that depends on the seed cannot
    be compared between runs. The overshoot fault is measured instead by the
    fixed cases, which hit it in every round.
    """
    while True:
        g = {name: float(gen.uniform(lo, hi)) for name, (lo, hi) in RANGES.items()}
        g["xi_second_moment"] = g["xi_mean"] ** 2 + float(gen.uniform(0.0, 2.0))
        if game == "se":
            g["lambda_ce"] = 0.0
        if not _overshoots(g["T"], n_steps) and _growth(g, game) <= MAX_GROWTH:
            return g


def _trapezoid_tolerance(g, game, n_steps) -> float:
    """Relative agreement expected of the package's second-order quadrature:
    (R h)^2 / 2, R the fastest rate in the integrands, h the refined step."""
    h = g["T"] / (n_steps * analytic.DEFAULT_REFINEMENT)
    rate = max(abs(_growth(g, game)) / g["T"], oracle.decay_rate(g, game))
    return 1e-9 + 0.5 * (rate * h) ** 2


class ClosedForm:
    """``feedback_policy_payoff`` of the equilibrium policy, then
    ``solve_equilibrium``, for fixed and seed-drawn games on several grids."""

    GRIDS = (5, 11, 50)
    GAMES = ("se", "ee")

    def __init__(self, seed, out_dir, call_cli):
        gen = np.random.default_rng(seed)
        reference = config_to_dict(default_config())
        self.cases = []
        for n in self.GRIDS:
            for game in self.GAMES:
                fixed = dict(oracle.REFERENCE_GAME, lambda_ce=1.0 if game == "ee" else 0.0)
                for g in (fixed, _draw_game(gen, n, game)):
                    data = dict(reference, game=g, grid={"n_steps": n})
                    self.cases.append((game, g, config.config_from_dict(data)))
        self.attempted = len(self.cases)
        self.failed = 0

    def run(self):
        outputs = []
        for game, _, case in self.cases:
            policy = analytic.equilibrium_policy(case.game, game)
            payoff = analytic.feedback_policy_payoff(
                case.game, policy, policy.reference_mean_fn, case.grid
            )
            try:
                solution = analytic.solve_equilibrium(case.game, game, case.grid)
            except Exception as exc:  # classified in check()
                solution = exc
            outputs.append((payoff, solution))
        self.failed = sum(isinstance(solution, Exception) for _, solution in outputs)
        return outputs

    def check(self, outputs):
        failures = []
        for (game, g, case), (payoff, solution) in zip(self.cases, outputs):
            n = case.grid.n_steps
            where = f"{game} game on {n} steps, T={g['T']!r}"
            tol = _trapezoid_tolerance(g, game, n)
            scale = abs(payoff.running_quadratic) + abs(payoff.entropy) + abs(payoff.terminal)
            if game == "se":
                expected = oracle.game_value(g)
            else:
                expected = oracle.payoff(g, oracle.gain(g, game), lambda s: oracle.policy_variance(g, s, game))
            if not abs(payoff.total - expected) <= tol * scale:
                failures.append(f"{where}: payoff {payoff.total!r} != oracle {expected!r}")
            if isinstance(solution, Exception):
                if not (isinstance(solution, DomainError) and "outside the horizon" in str(solution)
                        and _overshoots(g["T"], n)):
                    failures.append(f"{where}: solve_equilibrium raised {solution!r}")
                continue
            if _overshoots(g["T"], n):
                failures.append(f"{where}: expected the grid-overshoot DomainError")
            t = solution.times
            if not _close(solution.riccati, oracle.riccati(g, t, game), 1e-12):
                failures.append(f"{where}: riccati column differs from the oracle")
            if not _close(solution.policy_variance, oracle.policy_variance(g, t, game), 1e-12):
                failures.append(f"{where}: policy_variance column differs from the oracle")
            if not _close(solution.state_variance, oracle.state_variance(g, n, game), tol):
                failures.append(f"{where}: state_variance column differs from the oracle")
            if game == "se" and not abs(solution.game_value - expected) <= tol * scale:
                failures.append(f"{where}: game value {solution.game_value!r} != oracle {expected!r}")
        return failures, {}


WORKLOADS = {
    "reproduce": Reproduce,
    "seed_sweep": SeedSweep,
    "simulate": Simulate,
    "closed_form": ClosedForm,
}
