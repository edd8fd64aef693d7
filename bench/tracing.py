"""Call tracing for the benchmark's traced run.

Public functions of ``lqmfg`` are wrapped at the module attributes their
callers look up (``learner`` and ``cli`` import some of them by name, and
the evaluator is reached through its class), so the package itself is not
changed. Each wrapped call is a span: calls, busy time, and self time (busy
time minus the time covered by wrapped calls made inside it) are summed per
span name.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # time covered by wrapped children of each open span

    def wrap(self, name, fn, on_call=None):
        """``fn`` recorded as span ``name``; ``on_call(tracer, args, result)``
        runs after each call to record counts."""

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.busy[name] += busy
                self.self_time[name] += busy - children
                if self._open:
                    self._open[-1] += busy
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_call=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_call))


def _count_path_steps(tracer, args, result):
    # sample_rewards(params, grid, policy, mean_field, n_paths, stream)
    tracer.counts["simulate.sample_rewards.path_steps"] += args[4] * args[1].n_steps


def _count_report_bytes(tracer, args, written):
    tracer.counts["harness.write_report.bytes"] += sum(os.path.getsize(p) for p in written)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported package."""
    from lqmfg import analytic, cli, config, harness, learner, rng, simulate

    tracer.patch(rng, "substream", "rng.substream")
    tracer.patch(learner, "estimate_gradient", "learner.estimate_gradient")
    tracer.patch(learner, "gradient_step", "learner.gradient_step")
    tracer.patch(learner, "inner_loop", "learner.inner_loop")
    tracer.patch(learner, "propagate_mean_field", "learner.propagate_mean_field")
    tracer.patch(harness.PayoffEvaluator, "__init__", "harness.evaluator_init")
    tracer.patch(harness.PayoffEvaluator, "rel_error", "harness.rel_error")
    tracer.patch(harness, "write_report", "harness.write_report", _count_report_bytes)
    tracer.patch(simulate, "sample_rewards", "simulate.sample_rewards", _count_path_steps)
    tracer.patch(cli, "sample_rewards", "simulate.sample_rewards", _count_path_steps)
    tracer.patch(analytic, "feedback_policy_payoff", "analytic.feedback_policy_payoff")
    tracer.patch(analytic, "solve_equilibrium", "analytic.solve_equilibrium")
    tracer.patch(config, "config_from_dict", "config.config_from_dict")
    tracer.patch(cli, "config_from_dict", "config.config_from_dict")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one round, by metric name (units in BENCHMARK.json)."""
    out = {}
    for span in (
        "rng.substream", "learner.estimate_gradient", "harness.rel_error",
        "harness.evaluator_init", "simulate.sample_rewards",
        "analytic.feedback_policy_payoff", "analytic.solve_equilibrium",
    ):
        out[f"{span}.calls"] = tracer.calls[span]
        out[f"{span}.busy_s"] = tracer.busy[span]
    for span in (
        "learner.gradient_step", "learner.propagate_mean_field",
        "harness.write_report", "config.config_from_dict",
    ):
        out[f"{span}.busy_s"] = tracer.busy[span]
    out["learner.inner_loop.self_s"] = tracer.self_time["learner.inner_loop"]
    out["cli.simulate.self_s"] = tracer.self_time["cli.simulate"]
    out["harness.write_report.bytes"] = tracer.counts["harness.write_report.bytes"]
    path_steps = tracer.counts["simulate.sample_rewards.path_steps"]
    out["simulate.sample_rewards.ns_per_path_step"] = (
        tracer.busy["simulate.sample_rewards"] * 1e9 / path_steps if path_steps else 0.0
    )
    return out
