"""The shared CSV writer against the row-by-row ``repr(float(...))`` writer
it replaced, and read back through ``csv.reader``."""

import csv
import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

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


_TEXT = st.text(alphabet=st.sampled_from(list("aZ09 ,;\"'\t\n\r")),
                max_size=8)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308]),
    st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(), _TEXT), max_size=12))
def test_write_csv_round_trips_through_csv_reader(rows):
    floats = np.array([r[0] for r in rows], dtype=float)
    ints = np.array([r[1] for r in rows], dtype=np.int64)
    flags = np.array([r[2] for r in rows], dtype=bool)
    texts = [r[3] for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        _write_csv(path, ["f", "i", "b", "s"], [floats, ints, flags, texts])
        with open(path, newline="") as fh:
            header, *cells = list(csv.reader(fh))
    assert header == ["f", "i", "b", "s"]
    assert len(cells) == len(rows)
    for (f, i, b, s), (cf, ci, cb, cs) in zip(rows, cells):
        back = float(cf)
        if np.isnan(f):
            assert np.isnan(back)
        else:  # bit for bit, the sign of zero included
            assert struct.pack("<d", back) == struct.pack("<d", f)
        assert int(ci) == i
        assert cb == str(int(b))
        assert cs == s
