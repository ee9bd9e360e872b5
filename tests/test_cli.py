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


def write_config(tmp_path, text=None, **overrides):
    text = text if text is not None else BASE_CONFIG
    body = text.format(out=tmp_path / "artifacts")
    for key, value in overrides.items():
        body += f"\n{key} = {value}\n"
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


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

    def test_kernel_bad_point_exit_2(self, capsys):
        assert cli.main(["kernel", "--point", "0.3,0.2", "--time", "0.5",
                         "--k", "1.0"]) == 2

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
