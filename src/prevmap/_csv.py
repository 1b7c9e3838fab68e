"""The one CSV writer behind every table the pipeline writes.

Float cells are written as ``repr(float(v))``, the shortest text that reads
back to the same double, so a written table re-reads bit for bit.
"""

import csv

import numpy as np


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
