"""Every malformed command line ends in exactly one JSON error object with
code ``InputError``, exit 1 and no output directory: bad flag values,
unknown flags and commands, a missing command, too few Monte Carlo paths
and unreadable ``--config`` files alike."""

import json

import pytest

from gneumann.cli import main


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    return tmp_path


def _closure_flags(d) -> list[str]:
    return ["--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv"),
            "--interior", str(d / "interior.tsv"), "--phi", str(d / "phi.tsv")]


def _input_error(capsys, argv, out) -> str:
    """Run ``main(argv)``; check exit 1, stderr one InputError object, no
    output directory; return the error's message."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)  # the whole of stderr is one JSON object
    assert err["code"] == "InputError"
    assert "usage:" not in captured.err + captured.out
    assert not out.exists()
    return err["message"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--start", "2", "--T", "1", "--N", "abc"], "invalid int value: 'abc'"),
    (["solve", "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["solve", "--method", "nope"], "invalid choice: 'nope'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
], ids=["bad-int", "unknown-flag", "bad-choice", "unknown-command"])
def test_malformed_flag_is_one_input_error(p3_files, capsys, argv, message):
    out = p3_files / "out"
    argv = [argv[0], *_closure_flags(p3_files), *argv[1:], "--out", str(out)]
    assert message in _input_error(capsys, argv, out)


def test_missing_command_is_one_input_error(p3_files, capsys, monkeypatch):
    monkeypatch.chdir(p3_files)
    before = sorted(p3_files.iterdir())
    assert "required: command" in _input_error(capsys, [], p3_files / "out")
    assert sorted(p3_files.iterdir()) == before


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_simulate_with_one_path_is_refused(p3_files, capsys):
    out = p3_files / "out"
    argv = ["simulate", *_closure_flags(p3_files), "--start", "2", "--T", "1", "--N", "1",
            "--out", str(out)]
    assert _input_error(capsys, argv, out) == "simulation needs N >= 2, got 1"


@pytest.mark.parametrize("text, message", [
    ('{"N": ', "cannot read config"),
    ('["N", 3]', "must hold a JSON object"),
    ('{"bogus": 1}', "unknown config key 'bogus'"),
], ids=["invalid-json", "json-array", "unknown-key"])
def test_bad_config_file_is_one_input_error(p3_files, capsys, text, message):
    (p3_files / "config.json").write_text(text)
    out = p3_files / "out"
    argv = ["solve", "--config", str(p3_files / "config.json"), *_closure_flags(p3_files),
            "--out", str(out)]
    assert message in _input_error(capsys, argv, out)
