"""The kernel command formats its CSVs on a process pool: the bytes do not
depend on the CPU count, and each file is written once."""

import multiprocessing
from pathlib import Path

import pytest

import gneumann as gn
from gneumann import fileio, stochastic
from gneumann.cli import main
from test_parallel_walks import pools  # noqa: F401  (the fixture)

SIDE = 12  # a 12 x 12 grid: 4 CSVs of 144 rows, about 83k cells


@pytest.fixture
def grid_files(tmp_path):
    def v(i, j):
        return f"{i}.{j}"

    edges = [f"{v(i, j)}\t{v(i, j + 1)}\t{1 + (i * j) % 3}\n"
             for i in range(SIDE) for j in range(SIDE - 1)]
    edges += [f"{v(i, j)}\t{v(i + 1, j)}\t1.5\n" for i in range(SIDE - 1) for j in range(SIDE)]
    (tmp_path / "graph.tsv").write_text("".join(edges))
    (tmp_path / "measure.tsv").write_text(
        "".join(f"{v(i, j)}\t{1 + (i + 2 * j) % 5 / 4}\n" for i in range(SIDE) for j in range(SIDE)))
    return tmp_path


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    return tmp_path


def _kernel(files, out, times):
    rc = main(["kernel", "--graph", str(files / "graph.tsv"), "--measure", str(files / "measure.tsv"),
               "--times", times, "--out", str(out)])
    assert rc == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_kernel_csv_bytes_do_not_depend_on_worker_count(grid_files, monkeypatch, pools):
    n = SIDE * SIDE
    assert 2 * 4 * n * (n + 1) >= stochastic._POOL_HOLDS  # the job runs on a pool
    written = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda workers=workers: workers)
        written[workers] = _kernel(grid_files, grid_files / f"w{workers}", "0.5,2")
    assert written[1] == written[2] == written[3]
    assert pools == ["fork", "fork"]  # one pool each for 2 and 3 workers

    # the bytes of the library writers
    g = fileio.read_graph(grid_files / "graph.tsv")
    spec = gn.eigendecompose(g, fileio.read_measure(grid_files / "measure.tsv"))
    ref = grid_files / "ref"
    ref.mkdir()
    for t in ("0.5", "2"):
        fileio.write_kernel_csv(gn.heat_kernel(spec, float(t)), ref / f"heat_t{t}.csv")
    fileio.write_kernel_csv(gn.green_kernel(spec), ref / "green.csv")
    fileio.write_spectrum_csv(spec, ref / "spectrum.csv")
    assert written[1] == {p.name: p.read_bytes() for p in sorted(ref.iterdir())}


def test_repeated_times_token_writes_its_file_once(grid_files, monkeypatch):
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 2)
    once = _kernel(grid_files, grid_files / "once", "0.5")
    assert sorted(once) == ["green.csv", "heat_t0.5.csv", "spectrum.csv"]
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(fileio, "open", spy, raising=False)
    assert _kernel(grid_files, grid_files / "twice", "0.5, 0.5,0.5") == once
    assert sorted(name for name in opened if name.endswith(".csv")) == sorted(once)


def test_small_kernel_starts_no_pool(p3_files, monkeypatch):
    def refuse(method=None):
        raise AssertionError("a pool started below the threshold")

    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    written = _kernel(p3_files, p3_files / "out", "0.5,2")
    assert sorted(written) == ["green.csv", "heat_t0.5.csv", "heat_t2.csv", "spectrum.csv"]
    assert written["spectrum.csv"].startswith(b"k,lambda,psi(1),psi(2),psi(3)\r\n0,0,")
