"""The direct route's outputs do not depend on the OpenBLAS kernel: above
``solver.DENSE_MAX_N`` vertices conjugate gradients make no BLAS call,
and the centering total of ``summary.json`` is an ``np.sum``, so forcing
OpenBLAS's Haswell or Sandybridge kernels writes the same bytes."""

import platform

import numpy as np
import pytest

from instances import run_cli
from test_direct_cg import _problem


def _dynamic_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, on an x86-64
    CPU with AVX2, so that ``OPENBLAS_CORETYPE`` can pick either kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__
    except (TypeError, KeyError, ImportError):  # a numpy before 2.0 lacks one of these
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and platform.machine().lower() in ("x86_64", "amd64")
            and __cpu_features__.get("AVX2", False))


def _write(d, problem, phi, mode) -> list[str]:
    """The problem as input files; returns the CLI's problem flags."""
    g = problem.graph
    (d / "graph.tsv").write_text("".join(f"{x}\t{y}\t{w!r}\n" for x, y, w in g.edges()))
    (d / "measure.tsv").write_text("".join(f"{x}\t{problem.measure[x]!r}\n" for x in g.vertices))
    (d / "phi.tsv").write_text("".join(f"{y}\t{v!r}\n" for y, v in phi.values.values.items()))
    if mode == "closure":  # the closure of its own graph on the same interior is itself
        (d / "interior.tsv").write_text("".join(f"{x}\n" for x in problem.interior))
        return ["--interior", str(d / "interior.tsv"), "--phi", str(d / "phi.tsv")]
    mu = problem.boundary_measure()
    (d / "boundary.tsv").write_text("".join(f"{y}\n" for y in problem.boundary))
    (d / "mu.tsv").write_text("".join(f"{y}\t{mu[y]!r}\n" for y in problem.boundary))
    return ["--boundary", str(d / "boundary.tsv"), "--mu", str(d / "mu.tsv"),
            "--phi", str(d / "phi.tsv")]


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="needs OpenBLAS with DYNAMIC_ARCH on x86-64 with AVX2")
@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_direct_outputs_do_not_depend_on_the_openblas_kernel(tmp_path, monkeypatch, mode):
    problem, phi = _problem(mode, 1025)
    args = ["solve", "--graph", str(tmp_path / "graph.tsv"), "--measure",
            str(tmp_path / "measure.tsv"), *_write(tmp_path, problem, phi, mode),
            "--method", "direct"]
    for kernel in ("Haswell", "Sandybridge"):
        monkeypatch.setenv("OPENBLAS_CORETYPE", kernel)
        proc = run_cli(args, tmp_path / kernel)
        assert proc.returncode == 0, proc.stderr
    haswell, sandybridge = ({name: (tmp_path / kernel / name).read_text()
                             for name in ("solution.csv", "summary.json")}
                            for kernel in ("Haswell", "Sandybridge"))
    assert haswell["summary.json"] == sandybridge["summary.json"]
    assert haswell["solution.csv"] == sandybridge["solution.csv"]
