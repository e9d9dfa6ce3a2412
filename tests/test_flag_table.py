"""The CLI's flags and the keys of --config come from one table: config
values reach every flag, flags still win, and --help shows the defaults."""

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


def _config(d, **values) -> list[str]:
    values = {"graph": str(d / "graph.tsv"), "measure": str(d / "measure.tsv"),
              "interior": str(d / "interior.tsv"), "phi": str(d / "phi.tsv"), **values}
    (d / "config.json").write_text(json.dumps(values))
    return ["--config", str(d / "config.json")]


def test_config_dump_paths_writes_paths_csv(p3_files):
    out = p3_files / "sim"
    argv = _config(p3_files, start="2", T=1.0, N=3, dump_paths=True, out=str(out))
    assert main(["simulate", *argv]) == 0
    assert (out / "paths.csv").read_text().startswith("path_id,step,state,holding_time\n")


def test_config_project_centers_the_data(p3_files):
    (p3_files / "phi.tsv").write_text("1\t2.0\n3\t0.0\n")
    out = p3_files / "proj"
    assert main(["solve", *_config(p3_files, project=True, out=str(out))]) == 0
    assert json.loads((out / "summary.json").read_text())["projected_shift"] == pytest.approx(1.0)


def test_config_command_key_is_ignored(p3_files):
    out = p3_files / "run"
    assert main(["solve", *_config(p3_files, command="verify", out=str(out))]) == 0
    assert json.loads((out / "summary.json").read_text())["method"] == "direct"


@pytest.mark.parametrize("flag,default", [
    ("--N N", "(default 10000)"),
    ("--seed SEED", "(default 0)"),
    ("--tol TOL", "(default 1e-10)"),
    ("--out OUT", "(default .)"),
])
def test_help_shows_defaults(capsys, flag, default):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.strip().startswith(flag))
    assert line.rstrip().endswith(default)
