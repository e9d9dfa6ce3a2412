"""A command that fails after its inputs are read creates no ``--out``
directory: each creates it right before its first write."""

import json

import pytest

from gneumann.cli import main

# a connected path whose Laplacian no solve or eigensolve resolves
STIFF_EDGES = [("1", "2", 1e-13), ("2", "3", 1e13), ("3", "4", 1.0)]
# a path with slow jump rates (cheap to simulate) whose two nonzero
# eigenvalues are further apart than the eigensolver can resolve
SLOW_EDGES = [("1", "2", 1e-20), ("2", "3", 1e-3)]


def _write_instance(d, edges, interior, phi):
    vertices = sorted({x for e in edges for x in e[:2]})
    (d / "graph.tsv").write_text("".join(f"{x}\t{y}\t{w!r}\n" for x, y, w in edges))
    (d / "measure.tsv").write_text("".join(f"{v}\t1\n" for v in vertices))
    (d / "interior.tsv").write_text("".join(f"{v}\n" for v in interior))
    (d / "phi.tsv").write_text("".join(f"{v}\t{x!r}\n" for v, x in phi.items()))
    return ["--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv"),
            "--out", str(d / "out")]


CASES = {
    "solve-direct": (STIFF_EDGES, ["2", "3"], ["solve", "--method", "direct"]),
    "solve-green": (STIFF_EDGES, ["2", "3"], ["solve", "--method", "green"]),
    "simulate": (SLOW_EDGES, ["2"], ["simulate", "--start", "2", "--T", "1", "--N", "10"]),
    "kernel": (STIFF_EDGES, ["2", "3"], ["kernel", "--times", "1"]),
    "verify": (STIFF_EDGES, ["2", "3"], ["verify"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failed_command_leaves_no_out_directory(tmp_path, capsys, case):
    edges, interior, argv = CASES[case]
    boundary = [v for v in sorted({x for e in edges for x in e[:2]}) if v not in interior]
    phi = {boundary[0]: 1.0, boundary[-1]: -1.0}
    flags = _write_instance(tmp_path, edges, interior, phi)
    if argv[0] != "kernel":
        flags += ["--interior", str(tmp_path / "interior.tsv"), "--phi", str(tmp_path / "phi.tsv")]
    assert main(argv + flags) == 1
    assert json.loads(capsys.readouterr().err)["code"] == "IllConditioned"
    assert not (tmp_path / "out").exists()
