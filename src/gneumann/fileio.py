"""Readers and writers for the on-disk formats.

Inputs are UTF-8 TSV: edges as ``x<TAB>y<TAB>weight``, measures and
vertex functions as ``x<TAB>value``, vertex sets one identifier per
line; ``#`` starts a comment.  The readers parse a file in chunks of
about 1 MiB (2^15 lines of an edge list) cut at line ends, and turn each
chunk's cells into index and value arrays before reading the next, so
the strings held at once are bounded by a chunk, not by the file, unless
a line is longer than a chunk or the only line breaks are the multibyte
ones (U+0085, U+2028, U+2029), which are never cut at.  A bad
line is reported as ``path:line``, the first one in file order.  Outputs
are CSV and JSON with numbers at 17 significant digits so doubles
round-trip losslessly, and JSON keys sorted so identical runs produce
identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IllConditionedError, InputError
from .forms import VertexFunction
from .graphs import Measure, WeightedGraph, build_graph
from .spectral import KernelMatrix, Spectrum

__all__ = [
    "read_graph",
    "read_measure",
    "read_vertex_set",
    "read_vertex_function",
    "write_kernel_csv",
    "write_spectrum_csv",
    "write_solution_csv",
    "read_solution_csv",
    "write_json",
    "fmt",
]


def fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return format(float(x), ".17g")


# bytes read per chunk, about 2^15 lines of an edge list: the parse holds
# one chunk's strings at a time beside the arrays it accumulates
_CHUNK_BYTES = 1 << 20
# substrings that call for comment stripping, trimming, skipping an empty
# line or a line break other than \n
_UNPLAIN = ("#", " ", "\t\n", "\n\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
# the one-byte line breaks of ``str.splitlines`` other than \n
_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _texts(path) -> Iterator[str]:
    """The file's text in chunks that each end with a line break (the
    last one is given a newline), so their ``str.splitlines`` lines are
    those of the whole text."""
    with open(path, "rb") as fh:
        held: list[bytes] = []  # what was read since the last cut
        while data := fh.read(_CHUNK_BYTES):
            cut = _last_break(data)
            if cut:
                yield _decode(path, b"".join(held) + data[:cut])
                held = [data[cut:]]
            else:
                held.append(data)
        if rest := b"".join(held):
            yield _decode(path, rest + b"\n")


def _last_break(data: bytes) -> int:
    """The end of the last line break in ``data``: its last LF or, if it
    has none, another one-byte break before its final byte (a final CR
    may begin a CRLF); 0 if there is none.  These bytes never occur
    inside a multibyte UTF-8 character."""
    return (data.rfind(b"\n") + 1
            or max(data.rfind(c, 0, len(data) - 1) for c in _BREAKS) + 1)


def _decode(path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        Path(path).read_text(encoding="utf-8")  # the same error, positioned in the whole file
        raise


def _bad_line(path, lineno: int, message: str) -> InputError:
    """A file that is not UTF-8 throughout raises its decoding error before
    any line error, as when the whole text was read at once."""
    Path(path).read_text(encoding="utf-8")
    return InputError(f"{path}:{lineno}: {message}")


def _plain(text: str, fields: int) -> bool:
    """True when each line of ``text`` is ``fields`` bare cells joined by
    tabs and ended by \n, so that the text splits into cells in one pass."""
    if not text.isascii() or text.startswith("\n") or any(s in text for s in _UNPLAIN):
        return False
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    kinds = b[(b == 9) | (b == 10)]  # the tabs and newlines in order
    line = np.array([9] * (fields - 1) + [10], dtype=np.uint8)
    return kinds.size % fields == 0 and bool((kinds.reshape(-1, fields) == line).all())


def _records(path, fields: int, expected: str) -> Iterator[tuple[Sequence[int], list[str]]]:
    """The data lines of a TSV file, a chunk at a time, as (line numbers,
    cells): ``fields`` stripped cells per line, flat, in file order.

    A data line is what is left of a line before its ``#`` once trailing
    whitespace is removed, if anything is.  It splits at tabs into
    ``fields`` cells; a single field is the whole trimmed line.  A line
    with another count ends the data after the lines before it are
    yielded, so a consumer that rejects one of those raises first.
    """
    lineno = 1
    for text in _texts(path):
        if _plain(text, fields):
            cells = text.replace("\n", "\t").split("\t")
            cells.pop()  # after the last newline
            lineno += len(cells) // fields
            yield range(lineno - len(cells) // fields, lineno), cells
            continue
        numbers, cells = [], []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].rstrip()
            if line:
                parts = line.split("\t") if fields > 1 else [line]
                if len(parts) != fields:
                    yield numbers, cells
                    raise _bad_line(path, lineno, f"expected '{expected}', got {line!r}")
                numbers.append(lineno)
                cells.extend(p.strip() for p in parts)
            lineno += 1
        yield numbers, cells


def _floats(path, lines: Sequence[int], cells: list[str], what: str) -> np.ndarray:
    """The cells as ``float`` parses them (numpy calls it on each one);
    the first that does not parse raises with its line."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        for lineno, c in zip(lines, cells):
            try:
                float(c)
            except ValueError:
                raise _bad_line(path, lineno, f"{what} {c!r} is not a number") from None
        raise


def read_graph(path) -> WeightedGraph:
    """Edge-list TSV; the vertex set is the endpoints in order of first
    appearance.

    One dict maps each endpoint name to the position of its first
    mention; a vertex's index is the rank of that position."""
    first: dict[str, int] = {}
    mentions = count()
    ends, weights = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for lines, cells in _records(path, 3, "x<TAB>y<TAB>weight"):
        weights.append(_floats(path, lines, cells[2::3], "weight"))
        del cells[2::3]  # x, y, x, y, ... in input order
        ends.append(np.fromiter(map(first.setdefault, cells, mentions), dtype=np.intp,
                                count=len(cells)))
    pos = np.concatenate(ends)
    if not pos.size:
        raise InputError(f"{path}: no edges found")
    rank = np.cumsum(pos == np.arange(pos.size)) - 1
    ij = rank[pos]
    return build_graph(list(first), arrays=(ij[0::2], ij[1::2], np.concatenate(weights)))


def _read_pairs(path, what: str) -> tuple[list[str], np.ndarray]:
    names: list[str] = []
    values = []
    seen: set[str] = set()
    for lines, cells in _records(path, 2, f"x<TAB>{what}"):
        xs = cells[0::2]
        if len(set(xs)) < len(xs) or not seen.isdisjoint(xs):
            k = next(k for k, x in enumerate(xs) if x in seen or seen.add(x))
            _floats(path, lines[:k], cells[1:2 * k:2], "value")  # an earlier bad value wins
            raise _bad_line(path, lines[k], f"duplicate entry for vertex {xs[k]!r}")
        seen.update(xs)
        names += xs
        values.append(_floats(path, lines, cells[1::2], "value"))
    if not names:
        raise InputError(f"{path}: no entries found")
    return names, np.concatenate(values)


def read_measure(path) -> Measure:
    return Measure.from_vector(*_read_pairs(path, "m"))


def read_vertex_function(path) -> VertexFunction:
    return VertexFunction.from_vector(*_read_pairs(path, "value"))


def read_vertex_set(path) -> tuple[str, ...]:
    """Identifiers one per line; repeats after the first are dropped."""
    out: dict[str, None] = {}
    for _, cells in _records(path, 1, "x"):
        out.update(dict.fromkeys(cells))
    if not out:
        raise InputError(f"{path}: no vertices found")
    return tuple(out)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other cells: quoted,
    with its quotes doubled, when it holds a comma, a quote or a line
    break.  Every CSV writer quotes its cells through this one rule."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class _Table:
    """A CSV table of numbers: a header line, then per label a row of the
    label and its row of ``values`` as ``fmt`` cells ("%.17g"), formatted
    in one step from a template.  ``csv.writer`` never quotes such cells,
    so the bytes are the ones it writes, at a fraction of the cost.  The
    CSV writers and the ``kernel`` command's pool share this formatter.
    Values that are not all finite are an ``IllConditionedError`` here,
    before any file is opened."""

    def __init__(self, header: Sequence[str], labels: Sequence[str], values: np.ndarray):
        if not np.isfinite(values).all():
            raise IllConditionedError("a table value is not finite: it overflows the float range")
        self.header = ",".join(header) + "\r\n"
        self.labels, self.values = labels, values
        self._row = "%s," + ",".join(["%.17g"] * values.shape[1]) + "\r\n"

    def rows(self, lo: int, hi: int) -> str:
        """The text of rows lo .. hi-1."""
        return "".join([self._row % (self.labels[i], *self.values[i].tolist())
                        for i in range(lo, hi)])

    def write(self, path, texts: Iterable[str] | None = None) -> None:
        """The header, then ``texts``, by default one row at a time."""
        n = len(self.labels)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(self.header)
            fh.writelines(texts or map(self.rows, range(n), range(1, n + 1)))


def _kernel_table(kernel: KernelMatrix) -> _Table:
    cells = [_csv_cell(x) for x in kernel.vertices]
    return _Table(["", *cells], cells, kernel.entries)


def _spectrum_table(spec: Spectrum) -> _Table:
    labels = ["%d,%.17g" % kl for kl in enumerate(spec.eigenvalues.tolist())]
    header = ["k", "lambda", *(_csv_cell(f"psi({v})") for v in spec.vertices)]
    return _Table(header, labels, spec.basis.T)


def write_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Dense matrix with vertex identifiers as header row and column."""
    _kernel_table(kernel).write(path)


def write_spectrum_csv(spec: Spectrum, path) -> None:
    """One row per eigenvalue: k, lambda and the eigenfunction."""
    _spectrum_table(spec).write(path)


def write_solution_csv(u: VertexFunction, boundary: Iterable, order: Iterable[str], path) -> None:
    bset = {str(v) for v in boundary}
    order = tuple(order)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("vertex,u,region\r\n")
        for x, v in zip(order, u._at(order).tolist()):
            fh.write(f"{_csv_cell(x)},{fmt(v)},{'boundary' if x in bset else 'interior'}\r\n")


def read_solution_csv(path) -> tuple[VertexFunction, tuple[str, ...]]:
    """Returns the function and the boundary vertices it declares."""
    values = {}
    boundary = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["vertex", "u", "region"]:
            raise InputError(f"{path}: unexpected solution header {header!r}")
        for row in reader:
            if len(row) != 3:
                raise InputError(f"{path}: malformed row {row!r}")
            x, u, region = row
            values[x] = float(u)
            if region == "boundary":
                boundary.append(x)
    if not values:
        raise InputError(f"{path}: empty solution file")
    return VertexFunction(values), tuple(boundary)


def _json_safe(obj):
    """obj with each non-finite float, in any dict or list, written as its
    string ("nan", "inf"), so that it is strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(obj, path) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file
    is opened, so no file is left behind."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
