"""The one CSV reader and the one CSV writer behind every table the
pipeline reads or writes.

Float cells are written as ``repr(float(v))``, the shortest text that reads
back to the same double, so a written table re-reads bit for bit.
"""

import csv

import numpy as np

from .errors import DataError


def _read_csv(path, columns):
    """The named ``columns`` of the CSV file at ``path``, in that order,
    each a tuple of its cells as text.  Blank rows are skipped.  A missing
    column, a data row whose length differs from the header's or text that
    is not CSV raises :class:`DataError` naming the file."""
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, [])
            table = [row for row in rows if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    for c in columns:
        if c not in header:
            raise DataError(f"{path}: missing field {c!r}")
    for k, row in enumerate(table):
        if len(row) != len(header):
            raise DataError(f"{path}: data row {k + 1} has {len(row)} "
                            f"fields, the header {len(header)}")
    cells = list(zip(*table)) or [()] * len(header)
    return [cells[header.index(c)] for c in columns]


def _cells(column):
    """Cells of one column: floats as their shortest repr, booleans as 0/1,
    anything else as ``csv`` writes it."""
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return [repr(v) for v in values.tolist()]
    if values.dtype.kind == "b":
        return values.astype(int).tolist()
    return list(column)


def _write_csv(path, header, columns):
    """Write a header row and then one row per index of ``columns``, a
    sequence of equal-length columns in header order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*[_cells(c) for c in columns]))
