"""One round of one workload, in a fresh process started by ``run.py``.

Usage: worker.py WORKLOAD SEED TRACE SPAWN_NS OUT_DIR

SPAWN_NS is the CLOCK_MONOTONIC time (ns) at which the parent started this
process, so set-up time counts interpreter start-up. Prints one JSON object
on its last stdout line: set-up and wall time, peak memory, operations
attempted and failed, the failed checks and, traced, the per-layer values.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    workload_name, seed, traced, spawn_ns, out_dir = argv
    seed, traced, spawn_ns = int(seed), traced == "1", int(spawn_ns)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lqmfg import cli

    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer()
    if traced:
        tracing.install(tracer)

    def call_cli(cli_argv):
        entry = tracer.wrap(f"cli.{cli_argv[0]}", cli.main) if traced else cli.main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = entry(cli_argv)
        return code, out.getvalue()

    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, out_dir, call_cli)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    start = time.perf_counter()
    outputs = workload.run()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, extra = workload.check(outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": failures,
        "extra": extra,
    }
    if traced:
        layers = tracing.layer_metrics(tracer)
        layers["import_s"] = import_s
        layers["cli.dump_bytes"] = extra.get("dump_bytes", 0)
        layers["wall_s.traced"] = wall_s
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
