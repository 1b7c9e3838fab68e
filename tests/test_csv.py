"""The shared CSV writer against the row-by-row ``repr(float(...))`` writer
it replaced."""

import csv

import numpy as np

from prevmap._csv import _write_csv


def _reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def test_write_csv_matches_row_writer(tmp_path):
    floats = np.array([0.1, -0.0, 1e-5, 1e16, 1 / 3, np.nan, np.inf,
                       -2.5e-300])
    n = len(floats)
    ints = np.arange(n, dtype=np.int64) * 7
    labels = np.array(["above", "below"] * (n // 2))
    flags = np.arange(n) % 3 == 0
    ids = [f"A{i}" for i in range(n)]
    py_floats = [float(v) * 2 for v in range(n)]
    _write_csv(tmp_path / "new.csv", ["id", "f", "i", "label", "flag", "g"],
               [ids, floats, ints, labels, flags, py_floats])
    _reference(tmp_path / "old.csv", ["id", "f", "i", "label", "flag", "g"],
               [[ids[k], repr(float(floats[k])), int(ints[k]), labels[k],
                 int(flags[k]), repr(float(py_floats[k]))]
                for k in range(n)])
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def test_write_csv_without_rows_writes_the_header(tmp_path):
    _write_csv(tmp_path / "empty.csv", ["a", "b"], [[], np.array([])])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\r\n"
