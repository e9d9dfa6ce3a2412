"""Spectral error contracts: ill-conditioning is reported under its own
code, and kernel lookups name an unknown vertex."""

import json

import pytest

import gneumann as gn
from gneumann.cli import main
from gneumann.errors import IllConditionedError, UnknownVertexError
from gneumann.fixtures import path_graph

# a connected path whose weights span 26 orders of magnitude: roundoff in
# the eigensolve cannot tell its two smallest nonzero eigenvalues from zero
STIFF_EDGES = [("1", "2", 1e-13), ("2", "3", 1e13), ("3", "4", 1.0)]


def test_eigendecompose_reports_ill_conditioning_on_connected_graph():
    g = gn.build_graph(["1", "2", "3", "4"], STIFF_EDGES)
    assert gn.is_connected(g)
    with pytest.raises(IllConditionedError, match="zero mode") as exc:
        gn.eigendecompose(g, gn.Measure.uniform(g.vertices))
    assert exc.value.code == "IllConditioned"
    assert exc.value.context["n_zero_modes"] != 1


def test_kernel_command_reports_ill_conditioning(tmp_path, capsys):
    (tmp_path / "graph.tsv").write_text("".join(f"{x}\t{y}\t{w!r}\n" for x, y, w in STIFF_EDGES))
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n4\t1.0\n")
    rc = main(["kernel", "--graph", str(tmp_path / "graph.tsv"),
               "--measure", str(tmp_path / "measure.tsv"), "--times", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["code"] == "IllConditioned"


def test_kernel_entry_unknown_vertex():
    g = path_graph(3)
    spec = gn.eigendecompose(g, gn.Measure.uniform(g.vertices))
    for kernel in (gn.heat_kernel(spec, 1.0), gn.green_kernel(spec)):
        assert kernel.entry(1, "3") == kernel.entries[0, 2]
        with pytest.raises(UnknownVertexError, match="'9'"):
            kernel.entry("9", "1")
        with pytest.raises(UnknownVertexError, match="'9'"):
            kernel.entry("1", "9")
