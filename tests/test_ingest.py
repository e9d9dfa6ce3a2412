"""The chunked TSV parser against the line-by-line reference readers:
the same vertices, CSR arrays, degrees, measure values and totals, and
the same exception with the same message, at every chunk size."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from gneumann import fileio

SRC = Path(__file__).resolve().parents[1] / "src"
SPELLINGS = ["1_0", "+1e5", "nan", "-inf", "infinity", "١٢", "0x1p3"]
NAMES = ["1", "2", "3", "a", "b", "x y", "é", "١"]
NUMBERS = SPELLINGS + ["1.0", "0.5", "2", "0", "-1", "1e-3", "1e400", "bogus", ""]
# one byte per read puts every line in a chunk of its own
CHUNKS = [1, 7, 64, fileio._CHUNK_BYTES]
READERS = {
    "graph": (3, fileio.read_graph, ref.read_graph),
    "measure": (2, fileio.read_measure, ref.read_measure),
    "function": (2, fileio.read_vertex_function, ref.read_vertex_function),
    "set": (1, fileio.read_vertex_set, ref.read_vertex_set),
}


def outcome(read, path):
    try:
        return read(path)
    except Exception as e:  # the class and message are what is compared
        return type(e), str(e)


def assert_same(kind, new, old):
    if isinstance(old, tuple) and len(old) == 2 and isinstance(old[0], type):
        assert new == old
    elif kind == "graph":
        assert new.vertices == old.vertices
        for name in ("indptr", "indices", "rows", "data", "deg"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    elif kind == "measure":
        assert list(new.values.items()) == list(old.values.items())
        assert new.total.hex() == float(sum(old.values.values())).hex()
    elif kind == "function":
        assert list(new.values.items()) == list(old.values.items())
    else:
        assert new == old


def check(kind, path, chunks=CHUNKS):
    _, new_read, old_read = READERS[kind]
    old = outcome(old_read, path)
    for chunk in chunks:
        with mock.patch.object(fileio, "_CHUNK_BYTES", chunk):
            assert_same(kind, outcome(new_read, path), old)


pad = st.sampled_from(["", "", "", " ", "  ", "\t", "\x1f", "　"])
tail = st.sampled_from(["", "", "", "\t", " ", " \t ", "# note", "  #x\ty", "#"])
filler = st.sampled_from(["", "   ", "\t", "\t\t", "\t \t", "# comment", "#", " # a\tb\tc"])


@st.composite
def tsv_text(draw, fields):
    """Data lines with padded cells, odd number spellings, wrong cell
    counts, comments, blank and whitespace-only lines, mixed line ends."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(filler))
            continue
        n = fields if draw(st.integers(0, 9)) else draw(st.integers(1, 4))
        cells = [draw(st.sampled_from(NAMES)) for _ in range(min(n, 2) if fields > 1 else n)]
        cells += [draw(st.sampled_from(NUMBERS)) if draw(st.integers(0, 3)) == 0
                  else repr(draw(st.floats(0.125, 8.0))) for _ in range(n - len(cells))]
        sep = "\t" if fields > 1 else draw(st.sampled_from(["\t", " "]))
        lines.append(sep.join(draw(pad) + c + draw(pad) for c in cells) + draw(tail))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", " "]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_chunked_parse_matches_line_reader(tmp_path, kind, data):
    path = tmp_path / f"{kind}.tsv"
    path.write_bytes(data.draw(tsv_text(READERS[kind][0])).encode("utf-8"))
    check(kind, path)


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("text", [
    "",
    "# nothing but comments\n\n   \n\t\n",
    "a\tb\t1.0\r\nb\tc\t2\r\n",
    "a\tb\t1.0\t\t\nb\tc\t2 \n",
    "  a \t b\t 1.0 # padded\n",
    "a\tb\t1_0\na\tc\t+1e5\nb\tc\tinfinity\n",
    "a\tb\t١٢\n",
    "a\tb\t0x1p3\n",
    "a\tb\tnan\n",
    "a\tb\t-inf\n",
    "a\tb\t1\nb\ta\t2\n",
    "a\tb\t1\nb\ta\t1\n",
    "a\ta\t1\n",
    "a\ta\t0\na\tb\t1\n",
    "a\tb\t-1\n",
    "a\tb\t0\n",
    "a\t1\na\t2\n",
    "a\t1\nb\tx\n",
    "a\t-1\n",
    "a\t0\nb\t1\n",
    "a\tb\n",
    "a\n",
    "a b\nc\n",
])
def test_explicit_cases_match_line_reader(tmp_path, kind, text):
    path = tmp_path / "in.tsv"
    path.write_bytes(text.encode("utf-8"))
    check(kind, path)


def _big(fields: int, lines: int) -> list[str]:
    """Valid lines on a path of distinct vertices, more than a chunk's bytes."""
    if fields == 3:
        return [f"v{k:07d}\tv{k + 1:07d}\t{0.5 + k % 7}\n" for k in range(lines)]
    if fields == 2:
        return [f"v{k:07d}\t{0.5 + k % 7}\n" for k in range(lines)]
    return [f"v{k:07d} in a set\n" for k in range(lines)]


@pytest.mark.parametrize("kind, bad, located", [
    ("graph", "v0000001\tv0000002\n", True),          # wrong cell count
    ("graph", "v0000001\tw\tponies\n", True),         # weight not a number
    ("graph", "v0000002\tv0000001\t3.25\n", False),   # conflicting duplicate
    ("graph", "v0000005\tv0000005\t1.0\n", False),    # self-loop
    ("graph", "v0000005\tv0000006\t-1.0\n", False),   # negative weight
    ("graph", "v0000005\tw\tnan\n", False),           # non-finite weight
    ("measure", "v0000007\t2.0\n", True),             # duplicate entry
    ("measure", "w\tponies\n", True),                 # value not a number
    ("measure", "w\t0\n", False),                     # not positive
    ("measure", "w\t1\t2\n", True),                   # wrong cell count
    ("function", "v0000007\t2.0\n", True),
    ("function", "w\t-\n", True),
])
def test_errors_beyond_the_first_chunk(tmp_path, kind, bad, located):
    lines = _big(READERS[kind][0], 120_000)
    assert sum(map(len, lines[:-3])) > fileio._CHUNK_BYTES
    lines[-3] = bad  # after the first chunk, with valid lines after it
    path = tmp_path / "big.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    new = outcome(READERS[kind][1], path)
    assert isinstance(new, tuple)
    assert (f"big.tsv:{len(lines) - 2}: " in new[1]) == located
    check(kind, path, [fileio._CHUNK_BYTES])


@pytest.mark.parametrize("kind", sorted(READERS))
def test_large_valid_files_match_line_reader(tmp_path, kind):
    path = tmp_path / "big.tsv"
    lines = _big(READERS[kind][0], 120_000)
    assert sum(map(len, lines[:100_000])) > fileio._CHUNK_BYTES
    lines[100_000] = "# a comment in the second chunk\n\n"
    path.write_text("".join(lines), encoding="utf-8")
    check(kind, path, [fileio._CHUNK_BYTES])


@pytest.mark.parametrize("end", ["\r", "\x0c", "\r\n"])
def test_files_without_newlines_are_cut_at_their_own_line_ends(tmp_path, end):
    """Lines ended by another break than \\n are still read a chunk at a
    time, not held whole."""
    path = tmp_path / "big.tsv"
    lines = _big(3, 120_000)
    lines[-3] = "v0000001\tv0000002\n"  # a bad line past the first chunk
    path.write_bytes("".join(lines).replace("\n", end).encode("utf-8"))
    texts = list(fileio._texts(path))
    # a chunk holds one read and the part line carried over from the last
    assert len(texts) > 1 and max(map(len, texts)) <= fileio._CHUNK_BYTES + max(map(len, lines))
    new = outcome(fileio.read_graph, path)
    assert isinstance(new, tuple) and f"big.tsv:{len(lines) - 2}: " in new[1]
    check("graph", path, [fileio._CHUNK_BYTES])


@pytest.mark.parametrize("kind", sorted(READERS))
def test_invalid_utf8_wins_over_an_earlier_bad_line(tmp_path, kind):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a\tb\tc\td\n" + "".join(_big(3, 120_000)).encode() + b"x\xff\ty\t1\n")
    new = outcome(READERS[kind][1], path)
    assert new[0] is UnicodeDecodeError
    check(kind, path, [64, fileio._CHUNK_BYTES])


def test_unknown_interior_vertex_is_named_in_file_order(tmp_path):
    """The vertex named by the error does not depend on the hash seed."""
    (tmp_path / "g.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "m.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "int.txt").write_text("2\naa\ncc\nqq\nbb\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    argv = [sys.executable, "-m", "gneumann.cli", "solve", "--graph", "g.tsv", "--measure",
            "m.tsv", "--interior", "int.txt", "--phi", "phi.tsv", "--out", "out"]
    errs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
        assert run.returncode == 1
        errs.append(run.stderr)
    assert errs[0] == errs[1]
    assert b"interior vertex 'aa' not in graph" in errs[0]
