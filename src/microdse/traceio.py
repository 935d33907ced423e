"""CSV interchange for traces.

Schema: first column ``t`` in seconds with 9 decimal places, then one
column per labeled channel.  Channel values are written with shortest
round-trip float formatting, so a written trace reads back
value-identical.  A header with no rows is an empty trace; a header that
names a column twice is rejected.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np


#: Rows that ``write_csv`` formats per chunk.
_CHUNK_ROWS = 1024


def write_csv(path: str | Path, t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    path = Path(path)
    labels = list(columns)
    arrays = [np.asarray(columns[lab], dtype=float) for lab in labels]
    n = len(t)
    for lab, arr in zip(labels, arrays):
        if arr.shape != (n,):
            raise ValueError(f"column {lab!r} has shape {arr.shape}, expected ({n},)")
    t = np.asarray(t, dtype=float)
    with path.open("w", newline="") as fh:
        fh.write(",".join(["t", *labels]) + "\n")
        # Python floats cost ~32 bytes each, so convert a chunk at a time
        for start in range(0, n, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            rows = np.column_stack([t[chunk], *(arr[chunk] for arr in arrays)]).tolist()
            fh.writelines(
                ",".join([f"{row[0]:.9f}", *map(repr, row[1:])]) + "\n" for row in rows
            )


def _bad_row(path: Path, n_columns: int) -> str | None:
    """The first data line that does not hold ``n_columns`` numbers."""
    with path.open() as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\r\n").split(",")
            if fields == [""]:
                continue
            if len(fields) != n_columns:
                return f"line {lineno} has {len(fields)} columns, the header has {n_columns}"
            try:
                [float(v) for v in fields]
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    return None


def read_csv(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    path = Path(path)
    with path.open() as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = line.rstrip("\r\n").split(",")
        if header[0] != "t":
            raise ValueError(f"{path}: first column must be 't', got {header[:1]}")
        if len(set(header)) != len(header):
            repeated = next(lab for i, lab in enumerate(header) if lab in header[:i])
            raise ValueError(f"{path}: column {repeated!r} appears more than once")
        with warnings.catch_warnings():
            # a header with no rows is the documented empty trace
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {_bad_row(path, len(header)) or exc}") from None
    if data.size == 0:
        data = np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {_bad_row(path, len(header))}")
    t = data[:, 0]
    return t, {lab: data[:, i + 1] for i, lab in enumerate(header[1:])}
