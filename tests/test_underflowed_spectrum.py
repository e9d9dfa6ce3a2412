"""A measure-scaled Laplacian that underflows to zero: on the path a-b-c
with weights 1e-300 and masses 1e300 every entry of S is 0, so the
zero-mode floor n eps lambda_max is 0 as well.  The spectrum is refused,
and every command ends in one ``IllConditioned`` JSON error with no output
directory: no traceback, and no NaN in a CSV."""

import json

import pytest

import gneumann as gn
from gneumann.cli import main
from gneumann.errors import IllConditionedError


@pytest.fixture
def files(tmp_path):
    (tmp_path / "graph.tsv").write_text("a\tb\t1e-300\nb\tc\t1e-300\n")
    (tmp_path / "measure.tsv").write_text("a\t1e300\nb\t1e300\nc\t1e300\n")
    (tmp_path / "interior.tsv").write_text("b\n")
    (tmp_path / "phi.tsv").write_text("a\t1.0\nc\t-1.0\n")
    return tmp_path


def test_eigendecompose_counts_every_zero_mode():
    g = gn.build_graph("abc", [("a", "b", 1e-300), ("b", "c", 1e-300)])
    with pytest.raises(IllConditionedError) as exc:
        gn.eigendecompose(g, gn.Measure.uniform("abc", 1e300))
    assert exc.value.code == "IllConditioned"
    assert exc.value.context == {"n_zero_modes": 3}


@pytest.mark.parametrize("command", [
    ["verify"],
    ["kernel", "--times", "1"],
    ["solve", "--method", "direct"],
    ["solve", "--method", "green"],
    ["solve", "--method", "heat-integral"],
])
def test_every_command_ends_in_one_json_error(files, capsys, command):
    flags = ["--graph", str(files / "graph.tsv"), "--measure", str(files / "measure.tsv")]
    if command[0] != "kernel":
        flags += ["--interior", str(files / "interior.tsv"), "--phi", str(files / "phi.tsv")]
    out = files / "out"
    assert main([*command, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["code"] == "IllConditioned"
    assert not out.exists()
