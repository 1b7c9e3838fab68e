"""The shared CSV writer against ``csv.writer`` and the row-by-row
``repr(float(...))`` writer it replaced, and read back through
``csv.reader``; the shared reader's contract; and the rule that no other
module parses CSV."""

import ast
import csv
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prevmap._csv import _BLOCK_ROWS, _read_csv, _write_csv
from prevmap.errors import DataError

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "prevmap")


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


def test_write_csv_across_write_blocks_matches_row_writer(tmp_path):
    # rows go out in blocks: a table one row past two of them
    n = 2 * _BLOCK_ROWS + 1
    values = np.random.default_rng(0).standard_normal(n)
    _write_csv(tmp_path / "new.csv", ["k", "v"], [np.arange(n), values])
    _reference(tmp_path / "old.csv", ["k", "v"],
               zip(range(n), values.tolist()))
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


_CELL_TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n; aZ')),
                    max_size=6)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
    st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(), _CELL_TEXT,
    st.none() | _CELL_TEXT, st.sampled_from(["above", "below", "", "a,b"])),
    max_size=8),
    order=st.permutations(range(6)), width=st.integers(1, 6))
@example(rows=[], order=list(range(6)), width=6)
@example(rows=[(0.5, 1, True, "", None, "")], order=list(range(6)), width=6)
@example(rows=[(0.5, 1, True, "", None, "")], order=[4, 0, 1, 2, 3, 5],
         width=1)
def test_write_csv_bytes_are_csv_writers(rows, order, width):
    # float, int64 and bool arrays, text with every character that is
    # quoted, a list with None and a list of numpy str_ labels; any first
    # ``width`` of them in any order, so one-column tables are written too
    header = ["f", "i", "b", 's,"t"', "none", "label"]
    columns = [np.array([r[0] for r in rows], dtype=float),
               np.array([r[1] for r in rows], dtype=np.int64),
               np.array([r[2] for r in rows], dtype=bool),
               [r[3] for r in rows], [r[4] for r in rows],
               [np.str_(r[5]) for r in rows]]
    cells = [[float(r[0]) for r in rows], [r[1] for r in rows],
             [int(r[2]) for r in rows], [r[3] for r in rows],
             [r[4] for r in rows], [r[5] for r in rows]]
    keep = order[:width]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        _write_csv(new, [header[k] for k in keep], [columns[k] for k in keep])
        _reference(old, [header[k] for k in keep],
                   zip(*[cells[k] for k in keep]))
        with open(new, "rb") as fh_new, open(old, "rb") as fh_old:
            assert fh_new.read() == fh_old.read()


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------

def test_read_csv_returns_the_named_columns_as_text(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\r\n1,x y,0.5\r\n\r\n2,\"q,r\",-0.0\r\n")
    assert _read_csv(path, ["c", "a"]) == [("0.5", "-0.0"), ("1", "2")]
    path.write_text("a,b\n")
    assert _read_csv(path, ["b"]) == [()]


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n", "missing field 'c'"),
    ("", "missing field 'a'"),
    ("a,b,c\n1,2,3\n4,5,6,7\n", "data row 2 has 4 fields, the header 3"),
    ("a,b,c\n1,2\n", "data row 1 has 2 fields, the header 3"),
], ids=["missing_column", "empty_file", "long_row", "short_row"])
def test_read_csv_refuses_naming_the_file(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        _read_csv(path, ["a", "c"])
    assert str(err.value) == f"{path}: {message}"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(header=st.lists(st.sampled_from("abcde"), min_size=1, max_size=4,
                       unique=True),
       cells=st.lists(st.lists(_TEXT, min_size=5, max_size=5), max_size=6),
       damage=st.sampled_from(["none", "long", "short", "missing"]),
       at=st.integers(0, 5))
def test_read_csv_returns_the_columns_or_names_the_file(header, cells,
                                                        damage, at):
    # a table csv.writer wrote, perhaps with one data row a field longer or
    # shorter, or read for a column it lacks
    rows = [row[:len(header)] for row in cells]
    columns = header[::-1] + (["z"] if damage == "missing" else [])
    bad = None
    if rows and damage in ("long", "short"):
        at %= len(rows)
        rows[at] = rows[at] + ["9"] if damage == "long" else rows[at][:-1]
        # a row left with no field is a blank row, which is skipped
        bad = at + 1 if rows[at] else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        if damage == "missing" or bad is not None:
            with pytest.raises(DataError, match=f"^{re.escape(path)}: "):
                _read_csv(path, columns)
            return
        got = _read_csv(path, columns)
    kept = [row for row in rows if row]
    assert got == [tuple(row[header.index(c)] for row in kept)
                   for c in columns]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(content=st.lists(st.sampled_from(
    [b"a", b"b", b"1", b",", b"\n", b"\r", b'"', b" ", b"\xff", b"\x00"]),
    max_size=30).map(b"".join))
def test_read_csv_of_any_bytes_returns_the_columns_or_names_the_file(
        content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            got = _read_csv(path, ["a", "b"])
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
    assert len(got) == 2 and len(got[0]) == len(got[1])
    assert all(isinstance(cell, str) for column in got for cell in column)


def test_only_the_csv_module_imports_csv():
    # one reader and one writer: every other module goes through _csv
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "_csv.py":
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "csv" for m in modules):
                found.append(f"{name} (line {node.lineno})")
    assert found == []
