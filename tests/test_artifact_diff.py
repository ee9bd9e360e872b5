"""The artifact comparison's measure of how far a solution moved.

``tools/artifact_diff.py`` is loaded by file path; it puts ``src`` and
``perfbench`` on ``sys.path``, which the tests restore afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"


@pytest.fixture
def artifact_diff(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solution_csv(rows):
    """``solution.csv`` bytes with rows of u1, u2, u3, p at made-up
    nodes."""
    lines = ["x,y,z,t,u1,u2,u3,p"]
    lines += [",".join(["0.0"] * 4 + [f"{v:.12e}" for v in row])
              for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_roundoff_velocity_is_measured_on_the_solution_scale(artifact_diff):
    # a box-like solution: u is roundoff, so its block scale is the floor,
    # 1e-3 of the largest entry (2.0); p moves by 1e-9 of its own scale
    old = solution_csv([[1e-17, 0.0, -2e-17, 2.0], [0.0, 3e-17, 0.0, -0.5]])
    new = solution_csv([[1e-17, 0.0, 2e-17, 2.0],
                        [0.0, 3e-17, 0.0, -0.5 + 2e-9]])
    u_move, p_move = artifact_diff.solution_moves(old, new)
    assert u_move == pytest.approx(4e-17 / 2e-3, rel=1e-9)
    assert p_move == pytest.approx(1e-9, rel=1e-6)


def test_moved_pressure_on_its_own_scale(artifact_diff, capsys):
    # u has the larger entries; p is scaled by its own largest, 0.4, and
    # the line reports the move beside the byte difference
    old = solution_csv([[3.0, -1.0, 0.5, 0.4], [0.0, 2.0, 1.0, -0.1]])
    new = solution_csv([[3.0, -1.0, 0.5, 0.4], [0.0, 2.0, 1.0, 0.1]])
    assert artifact_diff.solution_moves(old, new) == (0.0, 0.5)
    runs = [{"solution.csv": csv, "exit code": 0, artifact_diff.PEAK_RSS: 1.0}
            for csv in (old, new)]
    assert artifact_diff.report("case", *runs)
    assert capsys.readouterr().out == (
        "case: DIFFER in solution.csv (moved u 0.00e+00, p 5.00e-01 of "
        "scale); peak RSS 1.00 -> 1.00 MiB\n")
