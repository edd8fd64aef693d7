"""The lqmfg benchmark: one workload, timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Each round of the workload runs in a fresh Python process
(``worker.py``); rounds repeat until S seconds have passed, and at least
twice. Every round checks its outputs against ``oracle.py`` or against
properties the method must have. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics (medians over rounds) when untraced, the per-layer metrics when
traced. See README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One thread per numerical library, in this process and in every worker.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
ROUND_TIMEOUT_S = 120
MIN_ROUNDS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_round(args, out_dir):
    os.makedirs(out_dir)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), args.workload, str(args.seed),
         str(args.trace), str(spawn_ns), out_dir],
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "seed_sweep", "simulate", "closed_form"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "lqmfg", "__init__.py")):
        raise SystemExit(f"no lqmfg sources under {ROOT}/src: run from a source checkout")

    import oracle

    problems = oracle.self_test()
    if problems:
        raise SystemExit("oracle self-test failed: " + "; ".join(problems))

    runs_dir = os.path.join(BENCH, "_runs", str(os.getpid()))
    rounds = []
    start = time.monotonic()
    try:
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            rounds.append(run_round(args, os.path.join(runs_dir, str(len(rounds)))))
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            os.rmdir(os.path.dirname(runs_dir))

    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["extra"]["csv_sha256"] for r in rounds if "csv_sha256" in r["extra"]}
    if len(digests) > 1:
        failures.append("report CSVs differ between repeats of one seed")
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    if args.trace:
        units = _units()
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
