"""The one CSV reader and the one CSV writer behind every table the
pipeline reads or writes.

The writer formats a table column by column.  A cell is empty for ``None``,
``1`` or ``0`` for a boolean and the ``str`` of anything else; for a float
that is its shortest ``repr``, the text that reads back to the same double,
so a written table re-reads bit for bit.  Numpy columns go through
``tolist``, so their floats and booleans are Python ones.  Cells are
separated by ``,``, every row (the header first) ends in ``\\r\\n``, and
quoting is minimal: a cell is wrapped in ``"``, each inner ``"`` doubled,
when it holds ``,``, ``"``, ``\\r`` or ``\\n``, or when it is the empty only
cell of its row, which would otherwise read back as a blank row.  These are
the bytes ``csv.writer`` writes for the same cells.
"""

import csv
from itertools import islice

import numpy as np

from .errors import DataError

# a cell holding one of these is quoted
_QUOTED = (",", '"', "\r", "\n")
# rows joined into one write: bounds the text held at once
_BLOCK_ROWS = 1024


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


def _cells(name, column, alone):
    """The header cell ``name`` and then the cells of ``column``, as the
    module docstring formats and quotes them; ``alone`` when the column is
    the table's only one."""
    if isinstance(column, np.ndarray):
        # Python scalars, in a list held only by its iterator: freed once
        # the cells are made, before the text below is joined
        column = iter(column.tolist())
    cells = [str(name)]
    cells += ["" if v is None else "1" if v is True else "0" if v is False
              else str(v) for v in column]
    text = "".join(cells)
    if not (any(c in text for c in _QUOTED) or (alone and "" in cells)):
        return cells
    return ['"' + cell.replace('"', '""') + '"'
            if any(c in cell for c in _QUOTED) or (alone and not cell)
            else cell for cell in cells]


def _write_csv(path, header, columns):
    """Write a header row and then one row per index of ``columns``, a
    sequence of equal-length columns in the order of ``header``, which names
    at least one."""
    cells = [_cells(name, column, len(header) == 1)
             for name, column in zip(header, columns, strict=True)]
    rows = map(",".join, zip(*cells))
    with open(path, "w", newline="") as fh:
        for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
            fh.write("\r\n".join(block))
            fh.write("\r\n")
