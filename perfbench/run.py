"""wittflow benchmark: cold ``wittflow solve`` runs, one client, closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Every timed run is a fresh child interpreter (cold operator caches, an
uncalibrated convention) with OMP/OpenBLAS/MKL thread pools pinned to 1 in
its environment before it starts.  The parent starts the next child only
after the previous one has ended, for as long as another one fits into
``--seconds``, and checks every child's artifacts.

``--trace 0`` reports the end-to-end metrics (medians over the children):
``solve_s`` (wall time of ``wittflow solve`` inside the child), ``setup_s``
(child start until ``import wittflow`` and the convention calibration are
done) and ``peak_rss_mb`` (the child's own peak RSS, from ``os.wait4``).
``--trace 1`` alternates traced and untraced children and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero if any child failed or any output check did not hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"

# Whole-invocation cap: the benchmark must finish within 180 s.
HARD_LIMIT_S = 170.0
# Set-up-only children: this many before the solves, then more while the
# time left allows, up to the maximum.
SETUP_PROBES = (3, 12)
# Solving children per run, even if the last one ends after --seconds: a
# median of two is steadier than one child on the slowest workload, and a
# traced run needs one traced and one untraced child for the overhead.
MIN_SOLVES = 2
# solution.csv at the default seed must match the recorded reference to
# this relative tolerance (max-norm, velocity block and pressure apart,
# each block scaled by at least 1e-3 of the largest entry).
REF_RTOL = 1e-8
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Child:
    """Outcome of one child process."""

    def __init__(self, index: int, kind: str):
        self.index = index
        self.kind = kind            # "setup", "solve" or "traced"
        self.record: dict = {}
        self.rss_mb = float("nan")
        self.exit_code = None
        self.problems: list[str] = []
        self.digest = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def spawn(work: Path, index: int, kind: str, extra: list[str],
          timeout: float) -> Child:
    """Run one child to completion; rusage comes from its own wait4."""
    child = Child(index, kind)
    record_path = work / f"child{index:03d}.json"
    log_path = work / f"child{index:03d}.log"
    waited: dict = {}
    with open(log_path, "w") as log:
        spawn_t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), repr(spawn_t), str(record_path),
             *extra], env=child_env(), cwd=str(work), stdout=log,
            stderr=subprocess.STDOUT)
    waiter = threading.Thread(
        target=lambda: waited.update(r=os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(max(timeout, 1.0))
    if waiter.is_alive():
        proc.kill()
        waiter.join()
        child.problems.append(f"timed out after {timeout:.0f} s")
    _, status, rusage = waited["r"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    child.exit_code = proc.returncode
    child.rss_mb = rusage.ru_maxrss / 1024.0     # ru_maxrss is in KiB
    if child.exit_code != 0:
        tail = log_path.read_text().strip().splitlines()[-3:]
        child.problems.append(f"exit code {child.exit_code}: "
                              + " | ".join(tail))
    try:
        child.record = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        child.problems.append(f"no record: {exc}")
    return child


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _summary(path: Path) -> dict[str, str]:
    return dict(item.split("=", 1) for item in path.read_text().split())


def check_artifacts(child: Child, out: Path, spec: dict, tol: float,
                    reference) -> None:
    problems = child.problems
    missing = [a for a in ("solution.csv", "residuals.csv", "summary.txt")
               if not (out / a).is_file()]
    if missing:
        problems.append(f"missing artifacts {missing}")
        return
    digest = hashlib.sha256()
    for name in ("solution.csv", "residuals.csv", "summary.txt"):
        digest.update((out / name).read_bytes())
    child.digest = digest.hexdigest()
    try:
        solution = _read_csv(out / "solution.csv")
        residuals = _read_csv(out / "residuals.csv")
        summary = _summary(out / "summary.txt")
    except ValueError as exc:
        problems.append(f"unparsable artifact: {exc}")
        return
    if not solution or not residuals:
        problems.append("empty solution or residual history")
    if not all(math.isfinite(v) for row in solution + residuals for v in row):
        problems.append("non-finite value in solution.csv or residuals.csv")
    for key in spec["finite_keys"]:
        try:
            value = float(summary[key])
        except (KeyError, ValueError):
            problems.append(f"summary.txt lacks a number for {key}")
            continue
        if not math.isfinite(value):
            problems.append(f"summary.txt: {key}={summary[key]}")
    if spec["fixed_point"]:
        if summary.get("admissible") != "true":
            problems.append(f"admissible={summary.get('admissible')}")
        try:
            final = float(summary.get("final_residual", "nan"))
        except ValueError:
            final = float("nan")
        if not final < tol:
            problems.append(f"final_residual={final} not below {tol}")
    if reference is not None:
        problems.extend(compare_reference(solution, reference))


def load_reference(workload: str):
    path = REFERENCE / f"{workload}.csv"
    return _read_csv(path) if path.is_file() else None


def compare_reference(solution, reference) -> list[str]:
    if len(solution) != len(reference):
        return [f"solution has {len(solution)} rows, reference "
                f"{len(reference)}"]
    out = []
    overall = max(abs(v) for row in reference for v in row)
    for label, cols in (("velocity", slice(0, 3)), ("pressure", slice(3, 4))):
        got = [v for row in solution for v in row[4:][cols]]
        want = [v for row in reference for v in row[cols]]
        # A block that is roundoff (box velocity is ~1e-17) is compared on
        # the scale of the whole solution instead.
        scale = max(max(abs(v) for v in want), 1e-3 * overall)
        err = max(abs(a - b) for a, b in zip(got, want))
        if err > REF_RTOL * scale:
            out.append(f"{label} differs from the reference: max error "
                       f"{err:.3e} > {REF_RTOL:g} x {scale:.3e}")
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "pinned": {var: "1" for var in PINNED}}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        env["blas"] = {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                       for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        env["cpu"] = models[0] if models else platform.processor()
    except OSError:
        env["cpu"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


# ---------------------------------------------------------------------------
# Running the children
# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _line(name: str, values, unit: str) -> str:
    lo, hi = _quartiles(values)
    return (f"{name:<14} {statistics.median(values):.6g} {unit}  "
            f"(median, p25 {lo:.6g}, p75 {hi:.6g}, n={len(values)}; "
            f"{' '.join(format(v, '.4g') for v in values)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "wittflow" / "cli.py").is_file():
        print(f"error: no wittflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    tol = float(workloads.config_values(args.workload).get("solver.tol",
                                                           "nan"))

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workloads.prepare(args.workload, args.seed, work)
    reference = (load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    if args.seed == workloads.DEFAULT_SEED and reference is None:
        print(f"error: no reference for {args.workload}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    hard_deadline = started + HARD_LIMIT_S
    deadline = started + args.seconds
    children: list[Child] = []

    def start(kind: str) -> Child:
        index = len(children)
        extra = []
        if kind != "setup":
            out = work / f"out{index:03d}"
            extra = ["--config", str(config), "--output", str(out),
                     "--seed", str(args.seed)]
            if kind == "traced":
                extra.append("--trace")
        child = spawn(work, index, kind, extra,
                      hard_deadline - time.perf_counter())
        if kind != "setup" and child.exit_code == 0:
            check_artifacts(child, out, spec, tol, reference)
        children.append(child)
        for problem in child.problems:
            print(f"FAIL child {index} ({kind}): {problem}")
        return child

    # Untimed warm-up: fills the page cache and the bytecode cache that
    # every installed program has after its first run.
    warm = spawn(work, 999, "setup", [], 60.0)
    if not warm.ok:
        print(f"error: warm-up child failed: {warm.problems}",
              file=sys.stderr)
        return 1

    kinds = ["traced", "solve"] if args.trace else ["solve"]
    if not args.trace:
        for _ in range(SETUP_PROBES[0]):
            start("setup")
    walls = []
    i = 0
    while True:
        t0 = time.perf_counter()
        start(kinds[i % len(kinds)])
        walls.append(time.perf_counter() - t0)
        i += 1
        if i < MIN_SOLVES:
            continue
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
        if time.perf_counter() > hard_deadline - 2 * max(walls):
            break
    setups = [c for c in children if c.kind == "setup"]
    setup_wall = 1.0
    while (not args.trace and len(setups) < SETUP_PROBES[1]
           and time.perf_counter() + setup_wall < deadline):
        t0 = time.perf_counter()
        setups.append(start("setup"))
        setup_wall = time.perf_counter() - t0

    hashed = [c for c in children if c.digest is not None]
    for c in hashed[1:]:
        if c.digest != hashed[0].digest:
            c.problems.append("artifacts differ byte-wise from child "
                              f"{hashed[0].index}")
    threads = sorted({c.record.get("threads") for c in children
                      if c.record})
    print(f"live threads per child: {threads}")

    metrics: dict = {}
    if args.trace:
        traced = [c for c in children if c.kind == "traced" and c.ok]
        plain = [c for c in children if c.kind == "solve" and c.ok]
        metrics = layer_metrics(traced, plain)
    else:
        ok = [c for c in children if c.ok]
        solves = [c.record["solve_s"] for c in ok if c.kind == "solve"]
        setups = [c.record["setup_s"] for c in ok]
        rss = [c.rss_mb for c in ok if c.kind == "solve"]
        if solves:
            metrics = {"solve_s": (solves, "s"), "setup_s": (setups, "s"),
                       "peak_rss_mb": (rss, "MiB")}
            for name, (values, unit) in metrics.items():
                print(_line(name, values, unit))
            metrics = {name: {"value": statistics.median(values),
                              "unit": unit}
                       for name, (values, unit) in metrics.items()}

    attempted = len(children)
    failed = sum(1 for c in children if not c.ok)
    print(f"failure_rate   {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} children)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(traced: list[Child], plain: list[Child]) -> dict:
    """Medians of the traced children's layer values; counts must repeat."""
    import spans
    if not traced or not plain:
        return {}
    layers = [c.record["layers"] for c in traced]
    out = {}
    for name, (unit, _, exact) in spans.METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(l["trace.solve_s"] for l in layers)
                     - statistics.median(c.record["solve_s"] for c in plain))
        elif exact:
            values = {l[name] for l in layers}
            if len(values) > 1:
                for c in traced[1:]:
                    c.problems.append(f"{name} does not repeat: "
                                      f"{sorted(values)}")
                print(f"FAIL {name} differs between traced children: "
                      f"{sorted(values)}")
            value = layers[0][name]
        else:
            value = statistics.median(l[name] for l in layers)
        out[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value:.6g} {unit}  (n={len(layers)})")
    print(f"wrapped bindings {json.dumps(traced[0].record['bindings'])}")
    return out


if __name__ == "__main__":
    sys.exit(main())
