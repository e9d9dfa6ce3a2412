"""The kernel and spectrum writers format a row in one step and write the
bytes ``csv.writer`` writes for ``fmt`` cells."""

import csv

import pytest

import gneumann as gn
from gneumann import fileio

IDS = ["a,b", 'q"t', "plain", " sp", "x\ny"]


def _reference_kernel_csv(kernel, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(kernel.vertices))
        for i, x in enumerate(kernel.vertices):
            writer.writerow([x] + [fileio.fmt(v) for v in kernel.entries[i]])


def _reference_spectrum_csv(spec, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda"] + [f"psi({v})" for v in spec.vertices])
        for k in range(len(spec.eigenvalues)):
            writer.writerow([k, fileio.fmt(spec.eigenvalues[k])]
                            + [fileio.fmt(v) for v in spec.basis[:, k]])


@pytest.fixture
def spec():
    edges = [(IDS[i], IDS[i + 1], 0.5 + i / 3) for i in range(len(IDS) - 1)]
    edges.append((IDS[0], IDS[-1], 1e-7))
    g = gn.build_graph(IDS, edges)
    return gn.eigendecompose(g, gn.Measure({v: 1.0 + i / 7 for i, v in enumerate(IDS)}))


@pytest.mark.parametrize("which", ["heat", "green"])
def test_kernel_csv_bytes_match_csv_writer(tmp_path, spec, which):
    kernel = gn.heat_kernel(spec, 0.3) if which == "heat" else gn.green_kernel(spec)
    fileio.write_kernel_csv(kernel, tmp_path / "new.csv")
    _reference_kernel_csv(kernel, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_spectrum_csv_bytes_match_csv_writer(tmp_path, spec):
    fileio.write_spectrum_csv(spec, tmp_path / "new.csv")
    _reference_spectrum_csv(spec, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
