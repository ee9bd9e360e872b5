import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from wittflow import cli


BASE_CONFIG = """
# solver run configuration
domain.kind = torus
grid.h = 0.25
grid.dt = 0.125
time.horizon = 0.5
kernel.k = 1.0
forcing.preset = vector_bump
forcing.scale = 0.001
solver.mode = linear
output.dir = {out}
"""


BOX = {"domain.kind": "box", "domain.extent": "0.75,0.75,0.75"}


def write_config(tmp_path, text=None, **overrides):
    """The config ``text`` (``BASE_CONFIG`` by default) with each override
    rewriting its key's line in place, or appended if the key is new."""
    text = text if text is not None else BASE_CONFIG
    lines = text.format(out=tmp_path / "artifacts").splitlines()
    for key, value in overrides.items():
        at = [i for i, line in enumerate(lines)
              if line.split("=", 1)[0].strip() == key]
        if at:
            lines[at[0]] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def no_calibration(monkeypatch):
    """Make the calibration fail, so a refusal must come before it."""
    from wittflow import verify

    def calibrate():
        raise AssertionError("calibrated before the refusal")
    monkeypatch.setattr(verify, "ensure_convention", calibrate)


class TestConfigParsing:
    def test_missing_mandatory_key_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("domain.kind = torus\ngrid.h = 0.25\n")
        with pytest.raises(cli.ConfigError, match="grid.dt"):
            cli.load_config(str(path))

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("domain.kind = torus\nnonsense line\n")
        with pytest.raises(cli.ConfigError, match=":2"):
            cli.load_config(str(path))

    def test_kind_rank_cross_validation(self, tmp_path):
        cfg = write_config(tmp_path)
        loaded = cli.load_config(cfg)
        assert loaded.rank == 3
        bad = write_config(tmp_path, **{"lattice.rank": 1})
        with pytest.raises(cli.ConfigError, match="rank"):
            cli.load_config(bad)

    def test_box_requires_extent(self, tmp_path):
        text = BASE_CONFIG.replace("domain.kind = torus",
                                   "domain.kind = box")
        cfg = write_config(tmp_path, text=text)
        with pytest.raises(cli.ConfigError, match="extent"):
            cli.load_config(cfg)

    def test_unknown_preset(self, tmp_path):
        cfg = write_config(tmp_path, **{"forcing.preset": "mystery"})
        with pytest.raises(cli.ConfigError, match="mystery"):
            cli.load_config(cfg)

    def test_positive_parameters(self, tmp_path):
        cfg = write_config(tmp_path, **{"grid.h": "-0.25"})
        with pytest.raises(cli.ConfigError, match="positive"):
            cli.load_config(cfg)

    @pytest.mark.parametrize("key", ["grid.h", "grid.dt", "time.horizon",
                                     "kernel.k", "quad.tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_non_finite_parameters(self, tmp_path, key, value):
        # nan compares false with 0, so "<= 0" alone lets it through
        cfg = write_config(tmp_path, **{key: value})
        with pytest.raises(cli.ConfigError, match="positive and finite"):
            cli.load_config(cfg)

    def test_anti_flags(self, tmp_path):
        cfg = write_config(tmp_path,
                           **{"lattice.anti_flags": "true,false,true"})
        loaded = cli.load_config(cfg)
        assert loaded.anti_flags == (True, False, True)

    @pytest.mark.parametrize("flags", ["true,ture,false", "true,,false",
                                       "true,false", "true,false,true,true"])
    def test_bad_anti_flags_rejected(self, tmp_path, flags):
        # a misspelled flag must not silently become periodic
        cfg = write_config(tmp_path, **{"lattice.anti_flags": flags})
        with pytest.raises(cli.ConfigError, match="anti_flags"):
            cli.load_config(cfg)


    @pytest.mark.parametrize("key, value", [
        ("lattice.antiflags", "true,true,true"),
        ("solver.max_iters", "3")])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        # a misspelled key must not silently leave its default in place
        cfg = write_config(tmp_path, **{key: value})
        lineno = Path(cfg).read_text().splitlines().index(
            f"{key} = {value}") + 1
        with pytest.raises(cli.ConfigError,
                           match=rf":{lineno}: unknown key '{key}'"):
            cli.load_config(cfg)


def test_readme_config_block_loads_and_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config files are line-oriented", 1)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block.split("```")[1])
    cli.load_config(str(path))
    assert [key for key in cli._SCHEMA if f"`{key}" not in readme
            and f"\n{key} =" not in readme] == []


class TestCommands:
    def test_unknown_suite_exit_2(self, capsys):
        assert cli.main(["check", "--suite", "mystery"]) == 2

    def test_kernel_point_output(self, capsys):
        rc = cli.main(["kernel", "--point", "0.3,0.2,0.1",
                       "--time", "0.5", "--k", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "s,v1,v2,v3,wf,wfd,wn"
        values = [float(v) for v in out[1].split(",")]
        assert len(values) == 7

    def test_kernel_causal_zero_row(self, capsys):
        rc = cli.main(["kernel", "--point", "0.3,0.2,0.1",
                       "--time", "-1.0", "--k", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert all(float(v) == 0.0 for v in out[1].split(","))

    def test_kernel_lattice_tolerance_mode(self, capsys):
        rc = cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time", "0.5",
                       "--k", "1.0", "--lattice", "3,false,false,false",
                       "--tol", "1e-8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shells_used=" in out
        shells = int(out.rsplit("shells_used=", 1)[1].strip())
        assert shells >= 1

    def test_kernel_fixed_shells(self, capsys):
        import itertools
        from wittflow.kernels import KernelParams, fundamental_solution_array
        from wittflow.lattice import tail_bound
        x = np.array([0.3, 0.2, 0.1])
        rc = cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time", "0.5",
                       "--k", "1.0", "--lattice", "3,true,false,false",
                       "--shells", "2"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        omegas = np.array(list(itertools.product(range(-2, 3), repeat=3)))
        signs = np.where(omegas[:, 0] % 2 == 0, 1.0, -1.0)
        want = signs @ fundamental_solution_array(
            x + omegas, np.full(len(omegas), 0.5), 1.0)
        got = np.array([float(v) for v in out[1].split(",")])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-14)
        tail = tail_bound(3, float(np.linalg.norm(x)), 0.5, KernelParams(1.0))
        assert out[2] == f"tail_estimate={tail:.6g} shells_used=3"
        # no bound once the shells stop short of the point, or for t <= 0
        for point, time in (("1.5,0.2,0.1", "0.5"), ("0.3,0.2,0.1", "0")):
            cli.main(["kernel", "--point", point, "--time", time, "--k",
                      "1.0", "--lattice", "3,true,false,false",
                      "--shells", "0"])
            last = capsys.readouterr().out.splitlines()[-1]
            assert last == "tail_estimate=inf shells_used=1"

    @pytest.mark.parametrize("where", [
        ["--point", "0,0,0"],
        ["--point", "1,0,0", "--lattice", "3"],
        ["--point", "1,0,0", "--lattice", "1,true"],
        ["--point", "1,0,0", "--lattice", "1,true", "--shells", "2"]])
    def test_kernel_singular_point_exit_3(self, where, capsys):
        assert cli.main(["kernel", "--time", "0", "--k", "1.0"] + where) == 3
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("rank0", [[], ["--lattice", "0"]])
    def test_kernel_shells_refused_at_rank_0(self, rank0, capsys):
        assert cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time", "0.5",
                         "--k", "1.0", "--shells", "2"] + rank0) == 2
        captured = capsys.readouterr()
        assert "bad --shells" in captured.err and not captured.out

    def test_kernel_shells_and_tol_exclusive(self, capsys):
        assert cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time", "0.5",
                         "--k", "1.0", "--lattice", "3", "--shells", "2",
                         "--tol", "1e-6"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_kernel_lattice_matches_plain_at_rank0(self, capsys):
        cli.main(["kernel", "--point", "0.2,0.1,0.4", "--time", "0.4",
                  "--k", "2.0"])
        plain = capsys.readouterr().out.splitlines()[1]
        cli.main(["kernel", "--point", "0.2,0.1,0.4", "--time", "0.4",
                  "--k", "2.0", "--lattice", "0"])
        again = capsys.readouterr().out.splitlines()[1]
        assert plain == again

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the thread count from /proc")
    def test_threads_flag_pins_blas(self):
        # numpy reads the BLAS thread variables once, when it is imported,
        # so --threads works only if importing the CLI loads no numpy
        script = textwrap.dedent("""
            import sys
            import wittflow.cli as cli
            assert "numpy" not in sys.modules, "importing the CLI loads numpy"
            assert cli.main(["--threads", "1", "kernel", "--point",
                             "0.3,0.2,0.1", "--time", "0.5", "--k", "1"]) == 0
            import numpy as np
            np.ones((300, 300)) @ np.ones((300, 300))
            with open("/proc/self/status") as status:
                print(next(line.split()[1] for line in status
                           if line.startswith("Threads:")))
            """)
        env = {key: value for key, value in os.environ.items()
               if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1"   # threads in the process

    @pytest.mark.parametrize("lattice", ["3,true", "3,true,false",
                                         "1,ture", "x", "2.5", "4"])
    def test_kernel_bad_lattice_exit_2(self, lattice, capsys):
        assert cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time", "0.5",
                         "--k", "1.0", "--lattice", lattice]) == 2
        assert "bad --lattice" in capsys.readouterr().err

    def test_kernel_lattice_without_flags_is_periodic(self, capsys):
        outputs = []
        for lattice in ("3", "3,false,false,false", "3,no,0,False"):
            assert cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time",
                             "0.5", "--k", "1.0", "--lattice", lattice]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unread_flags_are_gone(self, tmp_path, capsys):
        assert cli.main(["check", "--seed", "1"]) == 2
        assert cli.main(["constants", "--config", write_config(tmp_path),
                         "--output", "out"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, threads, capsys, monkeypatch):
        # these used to run on the default BLAS pool, as if no flag were given
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert cli.main(["--threads", threads, "kernel", "--point",
                         "0.3,0.2,0.1", "--time", "0.5", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad --threads:") and not captured.out
        assert "OMP_NUM_THREADS" not in os.environ

    def test_kernel_bad_point_exit_2(self, capsys):
        assert cli.main(["kernel", "--point", "0.3,0.2", "--time", "0.5",
                         "--k", "1.0"]) == 2

    @pytest.mark.parametrize("flag, args", [
        ("--point", ["--point", "inf,0,0", "--time", "0.5"]),
        ("--point", ["--point", "0.1,nan,0", "--time", "0.5",
                     "--lattice", "3"]),
        ("--time", ["--point", "0.1,0,0", "--time", "nan"]),
        ("--time", ["--point", "0.1,0,0", "--time", "nan",
                    "--lattice", "3"]),
        ("--time", ["--point", "0.1,0,0", "--time", "inf",
                    "--lattice", "1,true", "--shells", "2"]),
        ("--tol", ["--point", "0.1,0,0", "--time", "0.5", "--tol", "nan",
                   "--lattice", "3"])])
    def test_kernel_non_finite_input_exit_2(self, flag, args, capsys):
        assert cli.main(["kernel", "--k", "1"] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"bad {flag}:")
        assert "finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, args", [
        ("--k", ["--k", "-1"]), ("--k", ["--k", "nan"]),
        ("--tol", ["--k", "1", "--lattice", "3", "--tol", "0"]),
        ("--tol", ["--k", "1", "--lattice", "3", "--tol", "-1"]),
        ("--shells", ["--k", "1", "--lattice", "3", "--shells", "-2"])])
    def test_kernel_out_of_range_input_exit_2(self, flag, args, capsys):
        # these used to fail as numerical errors (exit 3), and negative
        # shells printed an all-zero kernel with shells_used=-1
        assert cli.main(["kernel", "--point", "0.3,0.2,0.1", "--time",
                         "0.5"] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"bad {flag}:")
        assert captured.out == ""

    def test_solve_zero_forcing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"forcing.preset": "zero"})
        rc = cli.main(["solve", "--config", cfg])
        assert rc == 0
        out_dir = tmp_path / "artifacts"
        solution = (out_dir / "solution.csv").read_text().splitlines()
        assert solution[0] == "x,y,z,t,u1,u2,u3,p"
        data = np.loadtxt((out_dir / "solution.csv"), delimiter=",",
                          skiprows=1)
        assert np.allclose(data[:, 4:], 0.0, atol=1e-12)
        summary = (out_dir / "summary.txt").read_text()
        assert "iterations=1" in summary

    def test_solve_config_error_exit_2(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("domain.kind = pretzel\ngrid.h = 0.1\n"
                        "grid.dt = 0.1\ntime.horizon = 1\nkernel.k = 1\n")
        assert cli.main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key", ["grid.dt", "quad.tol"])
    def test_solve_non_finite_config_exit_2(self, tmp_path, key, capsys):
        # the box_linear geometry: a nan time step used to fail as a
        # numerical error (exit 3), and the box never reads quad.tol, so a
        # nan tolerance used to solve and exit 0
        path = tmp_path / "box.cfg"
        path.write_text(
            "domain.kind = box\ndomain.extent = 0.75,0.75,0.75\n"
            "grid.h = 0.25\ngrid.dt = 0.0625\ntime.horizon = 0.375\n"
            "kernel.k = 1.0\nquad.tol = 1e-10\n"
            f"output.dir = {tmp_path / 'out'}\n{key} = nan\n")
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("solver.max_iter", "0"), ("solver.max_iter", "-3"),
        ("solver.tol", "nan"), ("solver.tol", "-1"),
        ("forcing.scale", "nan"), ("forcing.scale", "inf")])
    def test_solve_bad_run_setting_exit_2(self, tmp_path, key, value,
                                          capsys):
        # these used to run: no sweep at all, all 50 sweeps without a
        # stopping test, or a numerical failure (exit 3) for the scale
        cfg = write_config(tmp_path, **{"solver.mode": "nonlinear",
                                        key: value})
        assert cli.main(["solve", "--config", cfg]) == 2
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()

    def test_solve_refuses_repeated_key_exit_2(self, tmp_path, capsys,
                                               no_calibration):
        # the last value used to win without a word, so an edited config
        # could carry a stale setting that never took effect
        cfg = write_config(tmp_path)
        with open(cfg, "a") as f:
            f.write("grid.h = 0.5\n")
        lines = Path(cfg).read_text().splitlines()
        first = lines.index("grid.h = 0.25") + 1
        assert cli.main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert (f":{len(lines)}: key 'grid.h' repeats line {first}"
                in err)
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("key, value", [
        ("solver.tol", "0.5"), ("solver.max_iter", "2")])
    def test_linear_solve_refuses_iteration_setting_exit_2(
            self, tmp_path, key, value, capsys, no_calibration):
        # a linear solve is one sweep: these used to be ignored silently
        cfg = write_config(tmp_path, **{key: value})
        lineno = Path(cfg).read_text().splitlines().index(
            f"{key} = {value}") + 1
        assert cli.main(["solve", "--config", cfg, "--seed", "7"]) == 2
        assert (f":{lineno}: {key} applies only to solver.mode = nonlinear"
                in capsys.readouterr().err)
        assert not (tmp_path / "artifacts").exists()

    def test_linear_solve_refuses_tol_flag_exit_2(self, tmp_path, capsys,
                                                 no_calibration):
        cfg = write_config(tmp_path)
        assert cli.main(["solve", "--config", cfg, "--tol", "0.5",
                         "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad --tol:") and not captured.out
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("key, settings, why", [
        ("domain.extent", {**BOX, "domain.extent": "nan,0.75,0.75"},
         "finite"),
        ("domain.extent", {**BOX, "domain.extent": "inf,0.75,0.75"},
         "finite"),
        ("domain.extent", {**BOX, "domain.extent": "-0.75,0.75,0.75"},
         "positive"),
        ("domain.extent", {**BOX, "domain.extent": "0.7,0.75,0.75"},
         "extent[0]: spacing 0.25 does not tile"),
        ("domain.extent", {**BOX, "domain.extent": "0.5,0.75,0.75"},
         "3 nodes"),
        ("time.horizon", {**BOX, "grid.dt": "0.3"}, "does not tile"),
        ("time.horizon", {**BOX, "grid.dt": "0.0625",
                          "time.horizon": "0.0625"}, "2 time slabs"),
        ("grid.h", {"grid.h": "0.3"}, "extent[0]: spacing 0.3 does not tile")])
    def test_solve_refuses_geometry_without_a_grid_exit_2(
            self, tmp_path, key, settings, why, capsys, no_calibration):
        # each used to fail as a numerical error (exit 3) after the
        # calibration, and the one-slab horizon ran two slabs; a torus
        # that gives no extent is refused at its spacing
        cfg = write_config(tmp_path, **settings)
        lines = Path(cfg).read_text().splitlines()
        lineno = max(i for i, line in enumerate(lines, start=1)
                     if line.startswith(f"{key} ="))
        assert cli.main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f":{lineno}: bad value for {key}: " in err and why in err
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("rows", [None, "x,y\n1,2\n"],
                             ids=["missing", "wrong_shape"])
    def test_solve_refuses_bad_forcing_csv_exit_2(self, tmp_path, rows,
                                                  capsys, no_calibration):
        csv = tmp_path / "forcing.csv"
        if rows is not None:
            csv.write_text(rows)
        cfg = write_config(tmp_path, **{"forcing.csv": csv})
        assert cli.main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad value for "
                              "forcing.csv: ")
        assert not (tmp_path / "artifacts").exists()

    def test_solve_refuses_forcing_csv_of_another_grid_exit_2(
            self, tmp_path, capsys, no_calibration):
        # same cell count as the config's 4^3 x 4 torus, twice its spacing
        from wittflow.domain import SpaceTimeGrid, export_field_csv
        from wittflow.verify import vector_bump_field
        csv = tmp_path / "forcing.csv"
        export_field_csv(vector_bump_field(
            SpaceTimeGrid(h=0.5, dt=0.25, dims=(4, 4, 4), nt=4)), csv)
        cfg = write_config(tmp_path, **{"forcing.csv": csv})
        assert cli.main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: bad value for forcing.csv: row 1 is not "
            "at the grid's node x,y,z,t = 0.125,0.125,0.125,0.0625")
        assert not (tmp_path / "artifacts").exists()

    def test_diverged_solve_exit_3_drops_stale_solution(
            self, tmp_path, capsys, monkeypatch):
        # a diverged run used to leave an older run's solution.csv beside
        # its own residuals and summary, and print its failure on stdout
        from wittflow import solver

        def diverge(prob, **kwargs):
            raise solver.SolverDivergence(
                "residual grew in 3 consecutive sweeps",
                solver.SolverReport(residual_history=[1.0, 2.0, 4.0, 8.0],
                                    admissible=False))
        monkeypatch.setattr(solver, "fixed_point_solve", diverge)
        out = tmp_path / "artifacts"
        out.mkdir()
        (out / "solution.csv").write_text("x,y,z,t,u1,u2,u3,p\n")
        cfg = write_config(tmp_path, **{"solver.mode": "nonlinear"})
        assert cli.main(["solve", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical failure: residual grew in 3 "
                                "consecutive sweeps\n")
        assert "numerical failure" not in captured.out
        assert "admissible=false iterations=4" in captured.out
        assert sorted(p.name for p in out.iterdir()) == [
            "residuals.csv", "summary.txt"]
        assert (out / "residuals.csv").read_text() == (
            "iter,residual\n1,1\n2,2\n3,4\n4,8\n")

    @pytest.mark.parametrize("mode", [
        {}, {"solver.mode": "nonlinear", "solver.max_iter": "30",
             "solver.tol": "1e-10"}], ids=["linear", "nonlinear"])
    def test_benchmark_argv_runs_in_both_modes(self, tmp_path, mode,
                                               capsys):
        # the argv the benchmark's child process sends, --seed included
        cfg = write_config(tmp_path, **mode)
        out = tmp_path / "bench"
        assert cli.main(["solve", "--config", cfg, "--output", str(out),
                         "--seed", "0"]) == 0
        for name in ("solution.csv", "residuals.csv", "summary.txt"):
            assert (out / name).stat().st_size > 0

    def test_solve_bad_tol_flag_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"solver.mode": "nonlinear"})
        assert cli.main(["solve", "--config", cfg, "--tol", "nan"]) == 2
        assert capsys.readouterr().err.startswith("bad --tol:")
        assert not (tmp_path / "artifacts").exists()

    def test_constants_verdict_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["constants", "--config", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("C1=", "C2=", "admissible="):
            assert token in out

    def test_nonlinear_solve_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"solver.mode": "nonlinear",
                                        "solver.max_iter": "10",
                                        "solver.tol": "1e-10"})
        rc = cli.main(["solve", "--config", cfg])
        assert rc == 0
        out_dir = tmp_path / "artifacts"
        residuals = (out_dir / "residuals.csv").read_text().splitlines()
        assert residuals[0] == "iter,residual"
        assert len(residuals) >= 2

    def test_solve_prints_report_warnings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"solver.mode": "nonlinear",
                                        "solver.max_iter": "1"})
        rc = cli.main(["solve", "--config", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning: iteration cap reached before the tolerance" in out
        assert "admissible=false" in out

    def test_solve_warns_once_about_oversized_forcing(self, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path, **{"solver.mode": "nonlinear",
                                        "solver.max_iter": "1",
                                        "forcing.scale": "1e8"})
        cli.main(["solve", "--config", cfg])
        out = capsys.readouterr().out
        assert out.count("forcing exceeds the admissibility bound") == 1


_TAGS = ("ppp", "app", "aap", "aaa")


class TestCheck:
    # suite -> exit code, printed lines in order, artifact names
    SUITES = {
        "algebra": (1, ["PASS algebra_relations",
                        "FAIL algebra_associativity"],
                    ["associativity.csv"]),
        "kernel": (0, ["PASS kernel_calibration", "PASS factorization_defect",
                       "PASS gaussian_mass"],
                   ["calibration.txt", "factorization.csv",
                    "gaussian_mass.csv"]),
        "lattice": (0, [line for tag in _TAGS for line in (
            f"PASS lattice_bruteforce_rank3_{tag}",
            f"PASS quasi_periodicity_{tag}")],
            [name for tag in _TAGS for name in (
                f"bruteforce_{tag}.csv", f"quasi_periodicity_{tag}.csv")]),
    }

    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_lines_and_artifacts(self, suite, tmp_path, capsys):
        code, lines, names = self.SUITES[suite]
        assert cli.main(["check", "--suite", suite,
                         "--output", str(tmp_path)]) == code
        assert capsys.readouterr().out.splitlines() == lines
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        if suite == "algebra":
            table = (tmp_path / "associativity.csv").read_text().splitlines()
            assert table[0] == "i,j,k,associates" and len(table) == 344
            assert table.count("e1,e1,f,false") == 1
        if suite == "kernel":
            record = (tmp_path / "calibration.txt").read_text().splitlines()
            assert [line.split("=")[0] for line in record[:3]] == [
                "fd_power", "sign", "factorization_power"]
            assert len(record) == 7

    def test_failed_calibration_is_reported(self, tmp_path, capsys,
                                            monkeypatch):
        # the check used to calibrate before any suite ran, so in a process
        # without a record a failed calibration exited 3 unreported
        from wittflow import kernels, verify

        def ambiguous():
            raise RuntimeError("operator convention calibration is "
                               "ambiguous")
        monkeypatch.setattr(kernels, "_convention", None)
        monkeypatch.setattr(verify, "calibrate_convention", ambiguous)
        assert cli.main(["check", "--suite", "kernel",
                         "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().out == "FAIL kernel_calibration\n"
        assert [p.name for p in tmp_path.iterdir()] == ["calibration.txt"]
        assert (tmp_path / "calibration.txt").read_text() == (
            "operator convention calibration is ambiguous\n")

    def test_failed_calibration_fails_each_suite_that_reads_it(
            self, tmp_path, capsys, monkeypatch):
        # the operators suite used to calibrate again and, failing too, end
        # the run with exit 3: no line and no file from operators or solver
        from wittflow import kernels, verify

        def ambiguous():
            raise RuntimeError("operator convention calibration is "
                               "ambiguous")
        monkeypatch.setattr(kernels, "_convention", None)
        monkeypatch.setattr(verify, "calibrate_convention", ambiguous)
        assert cli.main(["check", "--suite", "all",
                         "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            *self.SUITES["algebra"][1], "FAIL kernel_calibration",
            *self.SUITES["lattice"][1], "FAIL operators_calibration",
            "FAIL solver_calibration"]
        assert (tmp_path / "calibration.txt").read_text() == (
            "operator convention calibration is ambiguous\n")
