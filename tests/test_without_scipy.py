"""Every command runs without scipy: the program imports numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gneumann as gn

SRC = str(Path(gn.__file__).resolve().parents[1])

# runs the CLI on argv with scipy refused when the first argument is
# "refuse", and prints whether scipy was loaded
RUNNER = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseScipy())
from gneumann.cli import main
rc = main(sys.argv[2:])
print("scipy" in sys.modules)
sys.exit(rc)
"""


@pytest.fixture
def p3_args(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    (tmp_path / "boundary.tsv").write_text("1\n3\n")
    (tmp_path / "mu.tsv").write_text("1\t1.0\n3\t1.0\n")
    return ["--graph", str(tmp_path / "graph.tsv"), "--measure", str(tmp_path / "measure.tsv"),
            "--out", str(tmp_path / "out")]


def _run(mode, argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", RUNNER, mode, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def _closure(tmp_path):
    return ["--interior", str(tmp_path / "interior.tsv"), "--phi", str(tmp_path / "phi.tsv")]


def _boundary_measure(tmp_path):
    return ["--boundary", str(tmp_path / "boundary.tsv"), "--mu", str(tmp_path / "mu.tsv"),
            "--phi", str(tmp_path / "phi.tsv")]


@pytest.mark.parametrize("argv, problem", [
    (["simulate", "--start", "2", "--T", "1", "--N", "100"], _closure),
    (["simulate", "--start", "2", "--T", "1", "--N", "100"], _boundary_measure),
    (["kernel", "--times", "0.5,2"], None),
    (["solve", "--method", "direct"], _closure),
    (["solve", "--method", "direct"], _boundary_measure),
    (["solve", "--method", "green"], _closure),
    (["solve", "--method", "heat-integral"], _closure),
    (["solve", "--method", "green"], _boundary_measure),
    (["solve", "--method", "heat-integral"], _boundary_measure),
    (["verify"], _closure),
], ids=["simulate", "simulate-boundary-measure", "kernel", "solve-direct", "solve-direct-boundary-measure", "solve-green",
        "solve-heat-integral", "solve-green-boundary-measure",
        "solve-heat-integral-boundary-measure", "verify"])
def test_command_runs_with_scipy_refused(tmp_path, p3_args, argv, problem):
    extra = problem(tmp_path) if problem else []
    proc = _run("refuse", argv + p3_args + extra)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_direct_solve_leaves_scipy_unloaded(tmp_path, p3_args):
    # scipy importable, yet the direct route's LU never loads it
    proc = _run("allow", ["solve", "--method", "direct"] + p3_args + _closure(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
