"""Check that two source trees give byte-identical run artifacts.

    python3 tools/artifact_diff.py OLD_TREE NEW_TREE [--seeds 0 1]

For every benchmark workload (``perfbench/workloads.py``) and seed, the
config and forcing are written once with ``workloads.prepare``.  Each tree
then runs ``wittflow --threads 1 solve`` on them in a fresh interpreter
with its own ``src`` on ``PYTHONPATH``, and ``solution.csv`` (or its
absence), ``residuals.csv``, ``summary.txt``, stdout, stderr and the exit
code are compared byte for byte, and so are the stdout, stderr and exit
code of ``wittflow --threads 1 constants`` on the same config and seed.
The solve of the fixed config ``DIVERGING``, whose fixed point diverges
and exits 3, is compared the same way at each seed.  Each tree also runs
``wittflow --threads 1 check --suite all``, whose exit code, stdout,
stderr and every file it writes are compared by name and bytes, and
``wittflow --threads 1 kernel`` for each call of ``KERNEL_CALLS``, whose
stdout, stderr and exit code are compared.  Prints one line per workload
and seed for the solve, one for the constants, one per seed for the
diverging solve, one for the check and one per kernel call; exits 1 if
any of them differs.  Each line also reports both runs'
peak RSS (the child's own, from ``os.wait4``), for information only: it
never counts as a difference.  Both trees' ``src`` are first copied to
temporary paths of equal length, since the peak RSS moves by up to about
1 MiB with the length of the path the package is imported from.  A run of
all three workloads at one seed takes about 30 s per tree on one core, the
constants about 10 s, the check about 25 s and the kernel calls about
2 s.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

# The key of a run's peak RSS, which is reported but not compared.
PEAK_RSS = "peak RSS"

# The ``wittflow kernel`` calls compared: the plain kernel, shell sums to
# the default tolerance, a fixed shell count, a rank-1 sum, and a singular
# point (a lattice translate of the origin at t = 0), which exits 3.
_POINT = ("--point", "0.3,-0.2,0.1", "--time", "0.5", "--k", "1.5")
KERNEL_CALLS = (
    _POINT,
    (*_POINT, "--lattice", "3,true,true,true"),
    (*_POINT, "--lattice", "3", "--shells", "2"),
    (*_POINT, "--lattice", "1"),
    ("--point", "1,0,0", "--time", "0", "--k", "1.5", "--lattice", "1"),
)

# The torus_p_fixed_point torus driven by the vector_bump preset far above
# the admissibility bound: the sweeps take the divergence exit after 13, so
# the solve exits 3 and writes residuals.csv and summary.txt but no
# solution.
DIVERGING = {**workloads.config_values("torus_p_fixed_point"),
             "forcing.preset": "vector_bump", "forcing.scale": "1e7",
             "solver.max_iter": "40", "solver.tol": "1e-12"}


def run_wittflow(tree: Path, out: Path, *args: str) -> dict:
    """Stdout, stderr and exit code of ``wittflow --threads 1 ARGS`` under
    ``tree``, run from the parent of ``out``, and the child's peak RSS in
    MiB under the key ``PEAK_RSS``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as stdout, \
            tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "wittflow.cli", "--threads", "1", *args],
            env=env, cwd=out.parent, stdout=stdout, stderr=stderr)
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        return {"stdout": stdout.read(), "stderr": stderr.read(),
                "exit code": proc.returncode,
                PEAK_RSS: rusage.ru_maxrss / 1024.0}   # ru_maxrss is in KiB


def run_tree(tree: Path, config: Path, out: Path, seed: int) -> dict:
    """Artifacts, stdout and exit code of one solve under ``tree``."""
    got = run_wittflow(tree, out, "solve", "--config", str(config),
                       "--output", str(out), "--seed", str(seed))
    for name in workloads.ARTIFACTS:
        path = out / name
        got[name] = path.read_bytes() if path.exists() else None
    return got


def run_constants(tree: Path, config: Path, out: Path, seed: int) -> dict:
    """Stdout, stderr and exit code of one ``constants`` run under
    ``tree``."""
    return run_wittflow(tree, out, "constants", "--config", str(config),
                        "--seed", str(seed))


def run_check(tree: Path, out: Path) -> dict:
    """Stdout, stderr, exit code and every file of ``check --suite
    all``."""
    got = run_wittflow(tree, out, "check", "--suite", "all",
                       "--output", str(out))
    if out.is_dir():
        got.update((path.name, path.read_bytes())
                   for path in sorted(out.iterdir()) if path.is_file())
    return got


def report(what: str, old: dict, new: dict) -> bool:
    """Print whether ``old`` and ``new`` agree key for key, peak RSS aside,
    and both peaks; return True if they differ."""
    diffs = sorted(key for key in old.keys() | new.keys()
                   if key != PEAK_RSS and old.get(key) != new.get(key))
    print(f"{what}: " + (f"DIFFER in {', '.join(diffs)}" if diffs
                         else f"identical, exit code {new['exit code']}")
          + f"; peak RSS {old[PEAK_RSS]:.2f} -> {new[PEAK_RSS]:.2f} MiB",
          flush=True)
    return bool(diffs)


def copy_src(tree: Path, dest: Path) -> Path:
    """``tree``'s ``src`` copied under ``dest``, which is returned."""
    shutil.copytree(tree / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the solve, constants, check and kernel output "
                    "of two source trees")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = copy_src(args.old.resolve(), Path(tmp) / "tree" / "old")
        new_tree = copy_src(args.new.resolve(), Path(tmp) / "tree" / "new")
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                work = Path(tmp) / f"{name}-{seed}"
                config = workloads.prepare(name, seed, work)
                old = run_tree(old_tree, config, work / "old", seed)
                new = run_tree(new_tree, config, work / "new", seed)
                differ |= report(f"{name} seed {seed}", old, new)
                differ |= report(
                    f"{name} seed {seed} constants",
                    run_constants(old_tree, config, work / "old", seed),
                    run_constants(new_tree, config, work / "new", seed))
        config = Path(tmp) / "diverging" / "run.cfg"
        config.parent.mkdir()
        config.write_text("".join(f"{key} = {value}\n"
                                  for key, value in DIVERGING.items()))
        for seed in args.seeds:
            work = config.parent / f"seed-{seed}"
            differ |= report(
                f"diverging seed {seed}",
                run_tree(old_tree, config, work / "old", seed),
                run_tree(new_tree, config, work / "new", seed))
        work = Path(tmp) / "check"
        differ |= report("check --suite all",
                         run_check(old_tree, work / "old" / "out"),
                         run_check(new_tree, work / "new" / "out"))
        for call in KERNEL_CALLS:
            differ |= report(
                "kernel " + " ".join(call),
                run_wittflow(old_tree, work / "old", "kernel", *call),
                run_wittflow(new_tree, work / "new", "kernel", *call))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
