"""The package runs on numpy and the standard library alone."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, adspet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    # numpy.random is loaded only by the sampler, on first use.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, adspet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_only_numpy_is_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].split("<")[0].strip()
             for dep in project["dependencies"]]
    assert names == ["numpy"]
