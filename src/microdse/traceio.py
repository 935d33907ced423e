"""CSV interchange for traces.

Schema: first column ``t`` in seconds with 9 decimal places, then one
column per labeled channel.  Channel values are written with shortest
round-trip float formatting, so a written trace reads back
value-identical.  A header with no rows is an empty trace; a header that
names a column twice is rejected.

A large trace is formatted and parsed on every usable CPU (the process's
CPU affinity where the platform reports it, else the CPU count).  Its rows
are split into contiguous ranges, one per CPU but none smaller than
``_MIN_PART_ROWS`` rows (writes) or ``_MIN_PART_BYTES`` bytes of text
(reads); forked workers handle every range but the first, which the
calling process handles itself.  A write worker formats its rows into a
part file next to the target, which the caller appends in order and
deletes.  A read is cut after a newline, and each worker parses its byte
range with ``np.loadtxt`` and streams the raw array into the result.  The
bytes written are exactly those of a serial write, and a read returns
exactly what one ``np.loadtxt`` over the file returns, since every line
is parsed on its own; a read whose parts fail in any way is parsed again
serially, so its errors are the serial ones.  A trace that gives one
part, or a platform without ``os.fork``, takes the serial path.  Workers
are forked from the calling thread, so a caller running other threads
should not hold locks that formatting or parsing needs.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np


#: Rows that ``write_csv`` formats per chunk.
_CHUNK_ROWS = 1024
#: Fewest rows one process formats when a write is split.
_MIN_PART_ROWS = 4096
#: Fewest bytes of text one process parses when a read is split.
_MIN_PART_BYTES = 1 << 20
#: Bytes ``read_csv`` scans at a time for a newline to cut after.
_SCAN_BYTES = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _n_parts(size: int, min_size: int) -> int:
    """Parts to split ``size`` units into, each at least ``min_size``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), size // min_size))


def _fork(work, *args) -> int:
    """Run ``work(*args)`` in a forked child; its exit status is 0 only if
    the call returned.  The child never returns into the caller."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            work(*args)
            code = 0
        finally:
            os._exit(code)
    return pid


@contextlib.contextmanager
def _workers():
    """A list for forked worker pids.  Each pid still listed on exit (the
    caller failed or was interrupted) is killed, and every one is reaped."""
    pids: list[int] = []
    try:
        yield pids
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _wait(pids: list[int]) -> list[int]:
    """Reap every worker in ``pids``, emptying it; their exit codes in order."""
    codes = []
    while pids:
        _, status = os.waitpid(pids[0], 0)
        pids.pop(0)
        codes.append(os.waitstatus_to_exitcode(status))
    return codes


def _write_rows(fh, t: np.ndarray, arrays: list[np.ndarray], start: int, stop: int) -> None:
    # Python floats cost ~32 bytes each, so convert a chunk at a time
    for lo in range(start, stop, _CHUNK_ROWS):
        chunk = slice(lo, min(lo + _CHUNK_ROWS, stop))
        rows = np.column_stack([t[chunk], *(arr[chunk] for arr in arrays)]).tolist()
        fh.writelines(
            ",".join([f"{row[0]:.9f}", *map(repr, row[1:])]) + "\n" for row in rows
        )


def _write_part(fd: int, t: np.ndarray, arrays: list[np.ndarray], start: int, stop: int) -> None:
    with open(fd, "w", newline="") as fh:
        _write_rows(fh, t, arrays, start, stop)


def write_csv(path: str | Path, t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    path = Path(path)
    labels = list(columns)
    arrays = [np.asarray(columns[lab], dtype=float) for lab in labels]
    n = len(t)
    for lab, arr in zip(labels, arrays):
        if arr.shape != (n,):
            raise ValueError(f"column {lab!r} has shape {arr.shape}, expected ({n},)")
    t = np.asarray(t, dtype=float)
    parts = _n_parts(n, _MIN_PART_ROWS)
    bounds = [n * i // parts for i in range(parts + 1)]
    part_files: list[str] = []
    try:
        with _workers() as pids:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                fd, name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".part", dir=path.parent)
                part_files.append(name)
                try:
                    pids.append(_fork(_write_part, fd, t, arrays, start, stop))
                finally:
                    os.close(fd)
            with path.open("w", newline="") as fh:
                fh.write(",".join(["t", *labels]) + "\n")
                _write_rows(fh, t, arrays, 0, bounds[1])
            codes = _wait(pids)
        for start, stop, code in zip(bounds[1:-1], bounds[2:], codes):
            if code != 0:
                raise OSError(
                    f"{path}: the worker writing rows {start} to {stop - 1} "
                    f"exited with status {code}"
                )
        with path.open("ab") as fh:
            for name in part_files:
                with open(name, "rb") as part:
                    shutil.copyfileobj(part, fh)
    finally:
        for name in part_files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)


def _bad_row(path: Path, n_columns: int) -> str | None:
    """The first data line that does not hold ``n_columns`` numbers, by
    ``np.loadtxt``'s rule: a line ends at its first ``#``, and a line left
    empty holds no row."""
    with path.open() as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\r\n").split("#", 1)[0].split(",")
            if fields == [""]:
                continue
            if len(fields) != n_columns:
                return f"line {lineno} has {len(fields)} columns, the header has {n_columns}"
            try:
                [float(v) for v in fields]
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    return None


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` up to ``stop`` of an open file, read by offset, so
    readers of one descriptor do not move each other."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._stop - self._pos), self._pos)
        buf[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _parse(fh, start: int, stop: int, n_columns: int) -> np.ndarray:
    """Rows in bytes ``start`` up to ``stop`` of ``fh``'s file, decoded as
    ``fh`` decodes; a ``ValueError`` unless each holds ``n_columns`` numbers."""
    raw = _ByteRange(fh.fileno(), start, stop)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding=fh.encoding, errors=fh.errors) as text:
        rows = np.loadtxt(text, delimiter=",", ndmin=2)
    if rows.size == 0:
        return np.empty((0, n_columns))
    if rows.shape[1] != n_columns:
        raise ValueError(f"{rows.shape[1]} columns, the header has {n_columns}")
    return rows


def _send_part(fh, start: int, stop: int, n_columns: int, reader: int, writer: int) -> None:
    """Parse one range and send its row count, then its raw float64 rows."""
    os.close(reader)
    rows = _parse(fh, start, stop, n_columns)
    with open(writer, "wb") as out:
        out.write(len(rows).to_bytes(8, "little"))
        out.write(np.ascontiguousarray(rows).data)


def _data_start(fd: int, header: str, encoding: str) -> int | None:
    """Byte offset after the header line ``header`` (as text mode read it),
    or None where that line does not end at the file's first newline."""
    head = os.pread(fd, len(header.encode(encoding)) + 1, 0)
    end = head.find(b"\n") + 1
    if end == 0 or head[:end].decode(encoding).replace("\r\n", "\n") != header:
        return None
    return end


def _cuts(fd: int, start: int, size: int, parts: int) -> list[int]:
    """Offsets that split bytes ``start`` up to ``size`` into at most
    ``parts`` ranges of near-equal length, each cut just after a newline."""
    cuts = [start]
    for i in range(1, parts):
        pos = max(start + (size - start) * i // parts, cuts[-1])
        while pos < size:
            block = os.pread(fd, _SCAN_BYTES, pos)
            newline = block.find(b"\n")
            if newline >= 0:
                pos += newline + 1
                break
            pos += len(block)
        if pos >= size:
            break
        cuts.append(pos)
    return cuts + [size]


def _parse_in_parts(fh, header_line: str, n_columns: int) -> np.ndarray | None:
    """The rows after ``header_line``, parsed by forked workers and this
    process; None where the file gives one part or any part fails."""
    fd = fh.fileno()
    start = _data_start(fd, header_line, fh.encoding)
    if start is None:
        return None
    size = os.fstat(fd).st_size
    cuts = _cuts(fd, start, size, _n_parts(size - start, _MIN_PART_BYTES))
    if len(cuts) < 3:
        return None
    with contextlib.ExitStack() as stack:
        pids = stack.enter_context(_workers())
        pipes = []
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            reader, writer = os.pipe()
            try:
                pids.append(_fork(_send_part, fh, lo, hi, n_columns, reader, writer))
            finally:
                os.close(writer)
            pipes.append(stack.enter_context(open(reader, "rb")))
        try:
            first = _parse(fh, cuts[0], cuts[1], n_columns)
        except ValueError:
            return None
        counts = []
        for pipe in pipes:
            count = pipe.read(8)
            if len(count) != 8:
                return None
            counts.append(int.from_bytes(count, "little"))
        data = np.empty((len(first) + sum(counts), n_columns))
        data[: len(first)] = first
        received = np.ravel(data).view(np.uint8)[first.nbytes :]
        del first
        for pipe, count in zip(pipes, counts):
            part, received = np.split(received, [count * n_columns * data.itemsize])
            if pipe.readinto(part) != part.nbytes:
                return None
        if any(_wait(pids)):
            return None
    return data


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
            data = _parse_in_parts(fh, line, len(header))
            if data is None:
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
