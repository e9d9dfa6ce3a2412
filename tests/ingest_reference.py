"""The line-by-line TSV readers that the chunked parser in ``fileio``
replaced, kept as the reference its results and errors must match."""

from pathlib import Path

from gneumann.errors import InputError
from gneumann.forms import VertexFunction
from gneumann.graphs import Measure, build_graph


def _data_lines(path):
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def read_graph(path):
    vertices, seen, edges = [], set(), []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'x<TAB>y<TAB>weight', got {line!r}")
        x, y, w = parts[0].strip(), parts[1].strip(), parts[2].strip()
        try:
            w = float(w)
        except ValueError:
            raise InputError(f"{path}:{lineno}: weight {w!r} is not a number") from None
        for v in (x, y):
            if v not in seen:
                seen.add(v)
                vertices.append(v)
        edges.append((x, y, w))
    if not edges:
        raise InputError(f"{path}: no edges found")
    return build_graph(vertices, edges)


def read_pairs(path, what):
    out = {}
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected 'x<TAB>{what}', got {line!r}")
        x, v = parts[0].strip(), parts[1].strip()
        if x in out:
            raise InputError(f"{path}:{lineno}: duplicate entry for vertex {x!r}")
        try:
            out[x] = float(v)
        except ValueError:
            raise InputError(f"{path}:{lineno}: value {v!r} is not a number") from None
    if not out:
        raise InputError(f"{path}: no entries found")
    return out


def read_measure(path):
    return Measure(read_pairs(path, "m"))


def read_vertex_function(path):
    return VertexFunction(read_pairs(path, "value"))


def read_vertex_set(path):
    out, seen = [], set()
    for _, line in _data_lines(path):
        v = line.strip()
        if v not in seen:
            seen.add(v)
            out.append(v)
    if not out:
        raise InputError(f"{path}: no vertices found")
    return tuple(out)
