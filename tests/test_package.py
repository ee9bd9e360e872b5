import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittflow


def test_lazy_exports_resolve():
    # the re-exports are imported on first use: every advertised name must
    # be listed by dir() and resolve to the object its submodule defines
    listed = dir(wittflow)
    for name in wittflow.__all__:
        assert name in listed
        value = getattr(wittflow, name)
        assert value is getattr(sys.modules[value.__module__], name)
    assert wittflow.kernels is sys.modules["wittflow.kernels"]
    with pytest.raises(AttributeError, match="no_such_name"):
        wittflow.no_such_name


def test_set_up_loads_no_scipy():
    # importing scipy.fft alone doubles the resident set of a process, so
    # set-up (the CLI, the oracle suite and the calibration) must not
    # import any of scipy; only the quadrature oracle reaches for it
    code = ("import sys\n"
            "import wittflow.cli\n"
            "from wittflow import verify\n"
            "verify.ensure_convention()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ)
    src = str(Path(wittflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
