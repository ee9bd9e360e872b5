"""Record the reference solutions the benchmark checks at the default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one cold child per workload at the default seed and stores the
velocity and pressure columns of its ``solution.csv`` (13 significant
digits) as ``perfbench/reference/<workload>.csv``.  Re-record only when a
change is meant to move the solution, and say so with the change.
"""

from __future__ import annotations

import shutil
import sys

import run


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        work = run.ROOT / ".perfbench" / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = workloads.prepare(name, workloads.DEFAULT_SEED, work)
        out = work / "out"
        child = run.spawn(work, 0, "solve",
                          ["--config", str(config), "--output", str(out),
                           "--seed", str(workloads.DEFAULT_SEED)], 600.0)
        if child.exit_code == 0:
            tol = float(workloads.config_values(name).get("solver.tol",
                                                          "nan"))
            run.check_artifacts(child, out, workloads.WORKLOADS[name], tol,
                                None)
        if not child.ok:
            print(f"{name}: {child.problems}", file=sys.stderr)
            return 1
        rows = ["u1,u2,u3,p"]
        for row in run._read_csv(out / "solution.csv"):
            rows.append(",".join(format(v, ".12e") for v in row[4:]))
        (run.REFERENCE / f"{name}.csv").write_text("\n".join(rows) + "\n")
        print(f"{name}: {len(rows) - 1} rows, solve "
              f"{child.record['solve_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
