"""Check that two source trees give byte-identical run artifacts.

    python3 tools/artifact_diff.py OLD_TREE NEW_TREE [--seeds 0 1]

For every benchmark workload (``perfbench/workloads.py``) and seed, the
config and forcing are written once with ``workloads.prepare``.  Each tree
then runs ``wittflow --threads 1 solve`` on them in a fresh interpreter
with its own ``src`` on ``PYTHONPATH``, and ``solution.csv``,
``residuals.csv``, ``summary.txt``, stdout and the exit code are compared
byte for byte.  Each tree also runs ``wittflow --threads 1 check --suite
all``, whose exit code, stdout and every file it writes are compared by
name and bytes.  Prints one line per workload and seed and one for the
check; exits 1 if any of them differs.  Each line also reports both runs'
peak RSS (the child's own, from ``os.wait4``), for information only: it
never counts as a difference.  Both trees' ``src`` are first copied to
temporary paths of equal length, since the peak RSS moves by up to about
1 MiB with the length of the path the package is imported from.  A run of
all three workloads at one seed takes about 30 s per tree on one core, the
check about 25 s.
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


def run_wittflow(tree: Path, out: Path, *args: str) -> dict:
    """Stdout and exit code of ``wittflow --threads 1 ARGS`` under
    ``tree``, run from the parent of ``out``, and the child's peak RSS in
    MiB under the key ``PEAK_RSS``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as stdout:
        proc = subprocess.Popen(
            [sys.executable, "-m", "wittflow.cli", "--threads", "1", *args],
            env=env, cwd=out.parent, stdout=stdout,
            stderr=subprocess.DEVNULL)
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        return {"stdout": stdout.read(), "exit code": proc.returncode,
                PEAK_RSS: rusage.ru_maxrss / 1024.0}   # ru_maxrss is in KiB


def run_tree(tree: Path, config: Path, out: Path, seed: int) -> dict:
    """Artifacts, stdout and exit code of one solve under ``tree``."""
    got = run_wittflow(tree, out, "solve", "--config", str(config),
                       "--output", str(out), "--seed", str(seed))
    for name in workloads.ARTIFACTS:
        path = out / name
        got[name] = path.read_bytes() if path.exists() else None
    return got


def run_check(tree: Path, out: Path) -> dict:
    """Stdout, exit code and every file of ``check --suite all``."""
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
        description="compare the solve and check artifacts of two source "
                    "trees")
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
        work = Path(tmp) / "check"
        differ |= report("check --suite all",
                         run_check(old_tree, work / "old" / "out"),
                         run_check(new_tree, work / "new" / "out"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
