"""Readers and writers for the on-disk formats.

Inputs are UTF-8 TSV: edges as ``x<TAB>y<TAB>weight``, measures and
vertex functions as ``x<TAB>value``, vertex sets one identifier per
line; ``#`` starts a comment.  Outputs are CSV and JSON with numbers at
17 significant digits so doubles round-trip losslessly, and JSON keys
sorted so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from .errors import InputError
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


def _data_lines(path) -> Iterable[tuple[int, str]]:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def read_graph(path) -> WeightedGraph:
    """Edge-list TSV; the vertex set is the endpoints in order of first
    appearance."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(
                f"{path}:{lineno}: expected 'x<TAB>y<TAB>weight', got {line!r}"
            )
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


def _read_pairs(path, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
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


def read_measure(path) -> Measure:
    return Measure(_read_pairs(path, "m"))


def read_vertex_function(path) -> VertexFunction:
    return VertexFunction(_read_pairs(path, "value"))


def read_vertex_set(path) -> tuple[str, ...]:
    out = []
    seen = set()
    for _, line in _data_lines(path):
        v = line.strip()
        if v not in seen:
            seen.add(v)
            out.append(v)
    if not out:
        raise InputError(f"{path}: no vertices found")
    return tuple(out)


def write_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Dense matrix with vertex identifiers as header row and column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(kernel.vertices))
        for i, x in enumerate(kernel.vertices):
            writer.writerow([x] + [fmt(v) for v in kernel.entries[i]])


def write_spectrum_csv(spec: Spectrum, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda"] + [f"psi({v})" for v in spec.vertices])
        for k in range(len(spec.eigenvalues)):
            writer.writerow([k, fmt(spec.eigenvalues[k])] + [fmt(v) for v in spec.basis[:, k]])


def write_solution_csv(u: VertexFunction, boundary: Iterable, order: Iterable[str], path) -> None:
    bset = {str(v) for v in boundary}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "u", "region"])
        for x in order:
            writer.writerow([x, fmt(u[x]), "boundary" if x in bset else "interior"])


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


def write_json(obj, path) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file
    is opened, so no file is left behind."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
