"""CLI contracts: finite times and horizons, strict error JSON, and
validated ``--config`` values."""

import json
from pathlib import Path

import pytest

from gneumann.cli import main
from instances import run_cli


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    return tmp_path


def _closure_flags(d: Path) -> list[str]:
    return ["--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv"),
            "--interior", str(d / "interior.tsv"), "--phi", str(d / "phi.tsv")]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _error(capsys) -> dict:
    return json.loads(capsys.readouterr().err, parse_constant=_reject_constant)


def test_simulate_infinite_horizon_is_rejected(p3_files):
    # a regression would loop forever, so run it in a child process
    proc = run_cli(["simulate", *_closure_flags(p3_files), "--start", "2", "--T", "inf",
                    "--N", "2"], p3_files / "sim")
    assert proc.returncode == 1
    err = json.loads(proc.stderr, parse_constant=_reject_constant)
    assert err["code"] == "NonpositiveHorizon"
    assert "positive and finite" in err["message"]
    assert err["context"]["horizon"] == "inf"


def test_kernel_infinite_time_is_rejected(p3_files, capsys):
    out = p3_files / "kernel"
    rc = main(["kernel", "--graph", str(p3_files / "graph.tsv"),
               "--measure", str(p3_files / "measure.tsv"), "--times", "1,inf", "--out", str(out)])
    assert rc == 1
    err = _error(capsys)
    assert err["code"] == "NonpositiveTime"
    assert err["context"]["time"] == "inf"
    assert not (out / "heat_tinf.csv").exists()


def test_kernel_nan_time_error_is_strict_json(p3_files, capsys):
    rc = main(["kernel", "--graph", str(p3_files / "graph.tsv"),
               "--measure", str(p3_files / "measure.tsv"), "--times", "nan",
               "--out", str(p3_files / "k")])
    assert rc == 1
    err = _error(capsys)
    assert err["code"] == "NonpositiveTime"
    assert err["context"] == {"time": "nan"}


def test_simulate_nan_horizon_error_is_strict_json(p3_files, capsys):
    rc = main(["simulate", *_closure_flags(p3_files), "--start", "2", "--T", "nan",
               "--N", "2", "--out", str(p3_files / "s")])
    assert rc == 1
    err = _error(capsys)
    assert err["code"] == "NonpositiveHorizon"
    assert err["context"] == {"horizon": "nan"}


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "N", "100"),
    ("solve", "method", "bogus"),
    ("solve", "project", "yes"),
])
def test_bad_config_value_is_one_input_error(p3_files, capsys, command, key, value):
    config = {key: value, "out": str(p3_files / "out")}
    (p3_files / "config.json").write_text(json.dumps(config))
    argv = [command, "--config", str(p3_files / "config.json"), *_closure_flags(p3_files)]
    if command == "simulate":
        argv += ["--start", "2", "--T", "1"]
    rc = main(argv)
    assert rc == 1
    err = _error(capsys)
    assert err["code"] == "InputError"
    assert err["context"] == {"key": key}
    assert repr(key) in err["message"]
    assert not (p3_files / "out").exists()


def test_kernel_bad_later_time_writes_no_output(p3_files, capsys):
    out = p3_files / "kernel"
    rc = main(["kernel", "--graph", str(p3_files / "graph.tsv"),
               "--measure", str(p3_files / "measure.tsv"), "--times", "1,inf", "--out", str(out)])
    assert rc == 1
    assert _error(capsys)["code"] == "NonpositiveTime"
    assert not list(out.glob("heat_t*.csv"))


@pytest.mark.parametrize("name", ["graph.tsv", "phi.tsv", "config.json"])
def test_non_utf8_input_is_one_input_error(p3_files, capsys, name):
    (p3_files / "config.json").write_text("{}")
    with open(p3_files / name, "ab") as fh:
        fh.write(b"2\t\xff\n")
    out = p3_files / "out"
    rc = main(["solve", "--config", str(p3_files / "config.json"), *_closure_flags(p3_files),
               "--out", str(out)])
    assert rc == 1
    err = _error(capsys)  # the whole of stderr is one JSON object
    assert err["code"] == "InputError"
    assert "can't decode byte 0xff" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["kernel", "verify"])
def test_an_overflowing_spectrum_is_refused(tmp_path, capsys, command):
    # the hub of a star of 10 leaves with weight 1e307 has degree 1e308, so
    # the diagonal of S overflows and the eigenvalues are not finite
    (tmp_path / "graph.tsv").write_text("".join(f"0\t{k}\t1e307\n" for k in range(1, 11)))
    (tmp_path / "measure.tsv").write_text("".join(f"{k}\t1.0\n" for k in range(11)))
    (tmp_path / "interior.tsv").write_text("0\n")
    out = tmp_path / "out"
    rc = main([command, "--graph", str(tmp_path / "graph.tsv"),
               "--measure", str(tmp_path / "measure.tsv"), "--interior", str(tmp_path / "interior.tsv"),
               "--times", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err, parse_constant=_reject_constant)["code"] == "IllConditioned"
    assert not out.exists()  # no CSV or report written


@pytest.mark.parametrize("files, message", [
    (["--boundary", "boundary.tsv", "--mu", "mu.tsv"], "give --interior"),
    (["--interior", "interior.tsv", "--boundary", "boundary.tsv"], "not both"),
    ([], "need --interior"),
], ids=["boundary-measure", "both-modes", "no-problem"])
def test_verify_loads_its_problem_as_solve_does(p3_files, capsys, files, message):
    (p3_files / "boundary.tsv").write_text("1\n3\n")
    (p3_files / "mu.tsv").write_text("1\t1.0\n3\t1.0\n")
    out = p3_files / "out"
    rc = main(["verify", "--graph", str(p3_files / "graph.tsv"),
               "--measure", str(p3_files / "measure.tsv"),
               *(f if f.startswith("--") else str(p3_files / f) for f in files),
               "--out", str(out)])
    assert rc == 1
    err = _error(capsys)
    assert err["code"] == "InputError"
    assert message in err["message"]
    assert not out.exists()
