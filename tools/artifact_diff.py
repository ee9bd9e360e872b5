"""Check that two source trees give byte-identical run artifacts.

    python3 tools/artifact_diff.py OLD_TREE NEW_TREE [--seeds 0 1]

For every benchmark workload (``perfbench/workloads.py``) and seed, the
config and forcing are written once with ``workloads.prepare``.  Each tree
then runs ``wittflow --threads 1 solve`` on them in a fresh interpreter
with its own ``src`` on ``PYTHONPATH``, and ``solution.csv``,
``residuals.csv``, ``summary.txt``, stdout and the exit code are compared
byte for byte.  Prints one line per workload and seed; exits 1 if any of
them differs.  A run of all three workloads at one seed takes about 30 s
per tree on one core.
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


def run_tree(tree: Path, config: Path, out: Path, seed: int) -> dict:
    """Artifacts, stdout and exit code of one solve under ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "wittflow.cli", "--threads", "1", "solve",
         "--config", str(config), "--output", str(out), "--seed", str(seed)],
        env=env, cwd=out.parent, capture_output=True)
    got = {"stdout": proc.stdout, "exit code": proc.returncode}
    for name in workloads.ARTIFACTS:
        path = out / name
        got[name] = path.read_bytes() if path.exists() else None
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the solve artifacts of two source trees")
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
                diffs = [key for key in old if old[key] != new[key]]
                differ |= bool(diffs)
                print(f"{name} seed {seed}: "
                      + (f"DIFFER in {', '.join(diffs)}" if diffs
                         else f"identical, exit code {new['exit code']}"),
                      flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
