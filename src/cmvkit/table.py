"""The one format of each artifact kind.  A CSV table is a header row,
then one row per index; a str cell is written as given, an int by `str`
and a float by `repr`.  Rows end in "\\r\\n" and the file is UTF-8.  No
cell needs quoting, so the bytes are those of `csv.writer`.  A JSON
record is UTF-8 with indent 2; a numpy scalar is written as its `.item()`
and a complex as its `str`."""

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


def _json_value(value):
    """json.dump's hook for each value it cannot write itself."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, complex):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path, record) -> None:
    """Write `record` by the one JSON rule of the module docstring."""
    # json loads on first use, after the package: every module imports
    # table, and loading json with it raised perfbench's peak_rss_mb
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=_json_value)
