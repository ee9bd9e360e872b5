"""One benchmark child: a fresh interpreter, so every cache starts cold.

    python3 child.py SPAWN_T RECORD_JSON [--config CFG --output DIR --seed N]
                     [--trace]

``SPAWN_T`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared across processes).  Set-up ends once
``wittflow`` is imported and the operator convention is calibrated.  With
``--config`` the child then times ``wittflow solve`` in-process.  It writes
its measurements to ``RECORD_JSON`` and exits with the CLI's exit code.
The parent pins the numerical thread pools through the environment before
this interpreter starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _live_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spawn_t", type=float)
    parser.add_argument("record")
    parser.add_argument("--config")
    parser.add_argument("--output")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import wittflow
    from wittflow import cli, verify
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    verify.ensure_convention()
    setup_s = time.perf_counter() - args.spawn_t

    record = {"setup_s": setup_s, "wittflow": wittflow.__file__}
    code = 0
    if args.config:
        if tracer:
            calibrate_s = tracer.total_s["verify.calibrate"]
            tracer.reset()
        start = time.perf_counter()
        code = cli.main(["solve", "--config", args.config,
                         "--output", args.output, "--seed", str(args.seed)])
        record["solve_s"] = time.perf_counter() - start
        if tracer:
            record["layers"] = tracer.metrics(record["solve_s"], calibrate_s)
            record["bindings"] = tracer.bindings
    record["threads"] = _live_threads()
    record["exit_code"] = code
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
