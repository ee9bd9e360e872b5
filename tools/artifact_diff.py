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
check; exits 1 if any of them differs.  A run of all three workloads at one
seed takes about 30 s per tree on one core, the check about 20 s.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def run_wittflow(tree: Path, out: Path, *args: str) -> dict:
    """Stdout and exit code of ``wittflow --threads 1 ARGS`` under
    ``tree``, run from the parent of ``out``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "wittflow.cli", "--threads", "1", *args],
        env=env, cwd=out.parent, capture_output=True)
    return {"stdout": proc.stdout, "exit code": proc.returncode}


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
    """Print whether ``old`` and ``new`` agree key for key; return True if
    they differ."""
    diffs = sorted(key for key in old.keys() | new.keys()
                   if old.get(key) != new.get(key))
    print(f"{what}: " + (f"DIFFER in {', '.join(diffs)}" if diffs
                         else f"identical, exit code {new['exit code']}"),
          flush=True)
    return bool(diffs)


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
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                work = Path(tmp) / f"{name}-{seed}"
                config = workloads.prepare(name, seed, work)
                old = run_tree(args.old.resolve(), config, work / "old", seed)
                new = run_tree(args.new.resolve(), config, work / "new", seed)
                differ |= report(f"{name} seed {seed}", old, new)
        work = Path(tmp) / "check"
        differ |= report("check --suite all",
                         run_check(args.old.resolve(), work / "old" / "out"),
                         run_check(args.new.resolve(), work / "new" / "out"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
