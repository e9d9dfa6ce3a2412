import numpy as np
import pytest

import gneumann as gn
from gneumann import fileio
from gneumann.errors import InputError


def test_read_graph_tsv(tmp_path):
    p = tmp_path / "graph.tsv"
    p.write_text("# a path graph\n1\t2\t1.0\n2\t3\t0.5  # trailing comment\n")
    g = fileio.read_graph(p)
    assert g.vertices == ("1", "2", "3")
    assert g.weight("1", "2") == 1.0
    assert g.weight("2", "3") == 0.5


def test_read_graph_rejects_malformed(tmp_path):
    p = tmp_path / "graph.tsv"
    p.write_text("1\t2\n")
    with pytest.raises(InputError):
        fileio.read_graph(p)
    p.write_text("1\t2\tponies\n")
    with pytest.raises(InputError):
        fileio.read_graph(p)
    p.write_text("# only comments\n")
    with pytest.raises(InputError):
        fileio.read_graph(p)


def test_read_measure_and_function(tmp_path):
    mp = tmp_path / "m.tsv"
    mp.write_text("1\t2.0\n2\t1.0\n")
    m = fileio.read_measure(mp)
    assert m["1"] == 2.0 and m.total == 3.0

    fp = tmp_path / "f.tsv"
    fp.write_text("1\t0.25\n2\t-0.5\n")
    f = fileio.read_vertex_function(fp)
    assert f["2"] == -0.5

    dup = tmp_path / "dup.tsv"
    dup.write_text("1\t1.0\n1\t2.0\n")
    with pytest.raises(InputError):
        fileio.read_measure(dup)


def test_read_vertex_set(tmp_path):
    p = tmp_path / "set.tsv"
    p.write_text("# interior\n2\n")
    assert fileio.read_vertex_set(p) == ("2",)


def test_kernel_csv_round_trip(tmp_path, two_vertex):
    g, m = two_vertex
    spec = gn.eigendecompose(g, m)
    K = gn.green_kernel(spec)
    out = tmp_path / "green.csv"
    fileio.write_kernel_csv(K, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",1,2"
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert float(cells[1]) == K.entry("1", "1")
    assert float(cells[2]) == K.entry("1", "2")


def test_spectrum_csv(tmp_path, p3):
    spec = gn.eigendecompose(p3, gn.Measure.uniform(p3.vertices))
    out = tmp_path / "spectrum.csv"
    fileio.write_spectrum_csv(spec, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,psi(1),psi(2),psi(3)"
    row1 = lines[2].split(",")
    assert float(row1[1]) == spec.eigenvalues[1]


def test_solution_csv_round_trip_is_lossless(tmp_path, p3_closure, p3_phi):
    sol = gn.solve_direct(p3_closure, p3_phi)
    out = tmp_path / "solution.csv"
    fileio.write_solution_csv(sol.u, p3_closure.boundary, p3_closure.closure, out)
    u2, boundary = fileio.read_solution_csv(out)
    assert set(boundary) == set(p3_closure.boundary)
    for v in p3_closure.closure:
        assert u2[v] == sol.u[v]  # 17 significant digits reproduce doubles


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** float(rng.integers(-8, 8)))
        assert float(fileio.fmt(x)) == x


def test_write_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"b": 1.0 / 3.0, "a": [1, 2, {"z": 0.1}]}
    fileio.write_json(payload, a)
    fileio.write_json(payload, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite_and_leaves_no_file(tmp_path, bad):
    p = tmp_path / "x.json"
    with pytest.raises(ValueError):
        fileio.write_json({"ok": 1.0, "x": [bad]}, p)
    assert not p.exists()
