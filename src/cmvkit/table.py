"""CSV tables: the one cell format of every CSV artifact.  A table is a
header row, then one row per index; a str cell is written as given, an
int by `str` and a float by `repr`.  Rows end in "\\r\\n" and the file is
UTF-8.  No cell needs quoting, so the bytes are those of `csv.writer`."""

import numpy as np

# rows per write: one string per block keeps a writer's memory flat
_BLOCK = 512


def cells(values) -> list:
    """Each value's cell, read through `.tolist()` so that only Python
    scalars are formatted: a float by `repr`, a str or an int by `str`."""
    values = np.ravel(values)
    return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))


def write_csv(path, header, columns) -> None:
    """Write `header`, then one row per index of `columns` broadcast
    together: at most two axes, rows in C order.  A column with a length-1
    axis, such as theta on every level of an orbit, is formatted once and
    its text repeated."""
    columns = [np.atleast_2d(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    columns = [c if c.shape == shape else
               np.broadcast_to(np.array(cells(c), dtype=object).reshape(c.shape), shape)
               for c in columns]
    step_i = min(shape[1], _BLOCK) or 1
    step_o = _BLOCK // step_i
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for o in range(0, shape[0], step_o):
            for i in range(0, shape[1], step_i):
                block = [cells(c[o:o + step_o, i:i + step_i]) for c in columns]
                fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
