"""Monte Carlo jobs on a process pool: outputs do not depend on the CPU count."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
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
    assert pools == ["fork"]  # one walk serves the estimate and the dump
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


def _live_group(pgid: int) -> set[int]:
    """The processes of process group ``pgid`` that are not zombies."""
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rpartition(")")[2].split()[:3]
        except OSError:  # the process ended
            continue
        if int(pgrp) == pgid and state != "Z":
            pids.add(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table")
def test_pool_workers_die_with_their_parent(p3_files):
    # spans of 4096 paths of about 27k holds: a worker that outlived the CLI
    # would walk on for many seconds
    code = ("import sys\n"
            "from gneumann import cli, stochastic\n"
            "stochastic._cpu_count = lambda: 2\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "simulate", "--graph", str(p3_files / "graph.tsv"),
         "--measure", str(p3_files / "measure.tsv"), "--interior", str(p3_files / "interior.tsv"),
         "--phi", str(p3_files / "phi.tsv"), "--start", "2", "--T", "20000", "--N", "16384",
         "--out", str(p3_files / "sim")],
        env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(_live_group(proc.pid) - {proc.pid}) < 2:  # the two workers
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while _live_group(proc.pid):
            assert time.monotonic() < deadline, "pool workers outlived the CLI"
            time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=60)
