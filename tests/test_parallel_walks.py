"""Monte Carlo jobs on a process pool: outputs do not depend on the CPU count."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gneumann as gn
from gneumann import stochastic
from gneumann.cli import main

SRC = str(Path(gn.__file__).resolve().parents[1])


@pytest.fixture
def pools(monkeypatch):
    """The start methods of the pools that start, in order."""
    started = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return started


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    return tmp_path


def _estimate(sub, phi):
    # N is no multiple of any span; P3 at T = 5 runs about 7.7 holds a path
    est = gn.mc_estimate(sub, phi, "1", 5.0, 10_007, 3)
    assert stochastic._expected_holds(sub.graph, sub.measure, 5.0, 10_007) >= stochastic._POOL_HOLDS
    return est.value, est.stderr


def test_estimate_is_bit_identical_on_any_worker_count(p3_closure, p3_phi, monkeypatch, pools):
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda workers=workers: workers)
        results[workers] = _estimate(p3_closure, p3_phi)
    assert results[1] == results[2] == results[3]
    assert pools == ["fork", "fork"]  # one pool each for 2 and 3 workers


def test_dump_paths_bytes_do_not_depend_on_worker_count(p3_files, monkeypatch, pools):
    def run(workers):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: workers)
        out = p3_files / f"w{workers}"
        rc = main(["simulate", "--graph", str(p3_files / "graph.tsv"),
                   "--measure", str(p3_files / "measure.tsv"),
                   "--interior", str(p3_files / "interior.tsv"),
                   "--phi", str(p3_files / "phi.tsv"), "--start", "2", "--T", "30",
                   "--N", "1501", "--seed", "11", "--dump-paths", "--out", str(out)])
        assert rc == 0
        return (out / "estimate.json").read_bytes(), (out / "paths.csv").read_bytes()

    serial = run(1)
    assert pools == []
    assert run(3) == serial
    assert pools == ["fork", "fork"]  # the estimate's pool, then the dump's
    assert serial[1].decode().splitlines()[-1].startswith("1500,")


def test_small_job_starts_no_pool(p3_closure, p3_phi, monkeypatch):
    def refuse(method=None):
        raise AssertionError("a pool started below the threshold")

    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    assert stochastic._expected_holds(p3_closure.graph, p3_closure.measure, 1.0, 100) \
        < stochastic._POOL_HOLDS
    est = gn.mc_estimate(p3_closure, p3_phi, "1", 1.0, 100, 5)
    assert est.samples == 100


def test_estimate_beside_another_thread_runs_serially(p3_closure, p3_phi, monkeypatch):
    # a forked child would inherit the other thread's locks as they stand
    serial = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 10_007, 3)

    def refuse(method=None):
        raise AssertionError("a pool started beside another thread")

    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        assert gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 10_007, 3) == serial
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()


def test_estimate_inside_a_pool_worker_runs_serially(p3_closure, p3_phi, monkeypatch):
    # a pool worker is daemonic and may not start a pool of its own; the
    # patched CPU count reaches the worker through fork
    serial = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 10_007, 3)
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 3)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inner = pool.apply_async(gn.mc_estimate, (p3_closure, p3_phi, "1", 5.0, 10_007, 3))
        assert inner.get(timeout=60) == serial


def test_help_imports_no_process_pool():
    code = ("import sys\n"
            "from gneumann.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
