"""Import cost: scipy loads on the first call that needs it, not at import."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_does_not_load_scipy():
    out = run_python(
        "import segal, segal.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


def test_first_quadrature_loads_scipy():
    out = run_python(
        "import sys, segal; from segal import _oracles; "
        "v = segal.module_sc(2.0); "
        "print('scipy' in sys.modules, abs(v - _oracles.module_agm(2.0)))"
    )
    loaded, err = out.split()
    assert loaded == "True"
    assert float(err) <= 1e-8
