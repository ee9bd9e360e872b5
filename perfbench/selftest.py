"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They check the tracing (every binding wrapped, counts that repeat exactly
across two traced children), the seeded inputs, the output checks, and that
the benchmark refuses to report without the wittflow sources.  The traced
runs take about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def _traced_pair(name: str, tmp_path: Path):
    config = workloads.prepare(name, workloads.DEFAULT_SEED, tmp_path)
    layers = []
    for index in range(2):
        out = tmp_path / f"out{index}"
        child = run.spawn(tmp_path, index, "traced",
                          ["--config", str(config), "--output", str(out),
                           "--trace"], 170.0)
        assert child.ok, child.problems
        layers.append(child.record["layers"])
    return layers


def _counts(layer: dict) -> dict:
    return {name: layer[name] for name, (_, _, exact) in spans.METRICS.items()
            if exact}


def test_every_binding_is_wrapped():
    import importlib
    modules = [importlib.import_module(f"wittflow.{m}")
               for m in spans.MODULES]
    originals = {}
    for mod_name, fn_name, _ in spans.SPANS:
        originals[(mod_name, fn_name)] = getattr(
            importlib.import_module(f"wittflow.{mod_name}"), fn_name)
    tracer = spans.Tracer()
    tracer.install()
    for mod in modules:
        for attr, value in vars(mod).items():
            for orig in originals.values():
                assert value is not orig, f"{mod.__name__}.{attr} unwrapped"
    # Names imported into other modules are rebound there too.
    assert tracer.bindings["potentials.teodorescu"] >= 3   # +solver, package
    assert tracer.bindings["kernels.fundamental_solution_array"] >= 3


def test_box_linear_counts_repeat(tmp_path):
    first, second = _traced_pair("box_linear", tmp_path)
    assert _counts(first) == _counts(second)
    assert first["potentials.cauchy_calls"] == 1298
    assert first["lattice.calls"] == 0
    assert first["solver.iterations"] == 0


@pytest.mark.parametrize("name", ["torus_p_fixed_point", "torus_a_linear"])
def test_torus_counts_repeat(name, tmp_path):
    first, second = _traced_pair(name, tmp_path)
    assert _counts(first) == _counts(second)
    assert first["lattice.calls"] > 0
    assert 0.0 < first["lattice.tail_max"] <= 1e-10
    fixed_point = workloads.WORKLOADS[name]["fixed_point"]
    assert (first["solver.iterations"] >= 2) == fixed_point
    assert (first["potentials.adjoint_calls"] > 0) == fixed_point


def test_seed_determines_forcing(tmp_path):
    from wittflow.domain import load_field_csv, discrete_norm
    paths = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        workloads.prepare("box_linear", seed, tmp_path / sub)
        paths.append(tmp_path / sub / "forcing.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    from wittflow.domain import build_box_domain
    grid = build_box_domain((0.75,) * 3, 0.375, 0.25, 0.0625).grid
    field = load_field_csv(paths[0], grid)
    assert discrete_norm(field, "L2") == pytest.approx(1.0, rel=1e-12)
    assert not field.values[..., [0, 4, 5, 6]].any()


def test_reference_comparison_flags_a_change():
    reference = run.load_reference("torus_p_fixed_point")
    solution = [[0.0] * 4 + row for row in reference]
    assert run.compare_reference(solution, reference) == []
    solution[100][7] *= 1.0 + 1e-6
    assert len(run.compare_reference(solution, reference)) == 1


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "box_linear", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
