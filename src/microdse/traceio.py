"""CSV interchange for traces.

Schema: first column ``t`` in seconds with 9 decimal places, then one
column per labeled channel, under a UTF-8 header.  Channel values are
written with shortest round-trip float formatting, so a written trace
reads back value-identical.  A header with no rows is an empty trace; a
header that names a column twice is rejected, and a write refuses a label
that would not read back (``t``, or one holding a comma or a line break).

A large trace is formatted and parsed on every usable CPU (the process's
CPU affinity where the platform reports it, else the CPU count), in
contiguous row ranges, one per CPU but none smaller than ``_MIN_PART_ROWS``
rows (writes) or ``_MIN_PART_BYTES`` bytes of text (reads, cut after a
newline).  Forked workers take every range but the first, which the
calling process takes itself, and each writes into its own anonymous
temporary file (a write's in the target's directory), so a killed run
leaves no part file behind.  The caller appends the formatted rows in
order, or reads the raw float64 rows that ``np.loadtxt`` parsed into the
result.  The bytes written are those of a serial write, and a read returns
exactly what one ``np.loadtxt`` over the file returns, since every line is
parsed on its own; a read whose parts fail in any way is parsed again
serially, so its errors are the serial ones.  One part, a platform without
``os.fork``, or a worker or file that cannot be set up means the serial
path.  Workers are forked from the calling thread, so a caller running
other threads should not hold locks that formatting or parsing needs.
"""

from __future__ import annotations

import contextlib
import io
import mmap
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


def _fork(work, out, *args) -> int:
    """Run ``work(out, *args)`` in a forked child, then flush file ``out``;
    its exit status is 0 only if both returned.  The child never returns
    into the caller."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            work(out, *args)
            out.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def _stop(pids: list[int]) -> None:
    """Kill every worker in ``pids`` and reap it, emptying the list."""
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    while pids:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pids[-1], 0)
        pids.pop()


@contextlib.contextmanager
def _in_workers(work, ranges: list[tuple[int, int]], dir=None):
    """Run ``work(out, start, stop)`` for each range in a forked worker,
    ``out`` being that worker's own anonymous temporary file in ``dir``.
    Yields a function that reaps the workers and returns each one's exit
    code and rewound file, in range order; or None where there is no range,
    or a worker or its file could not be set up (the workers started are
    then killed and reaped first).  On exit, workers still running are
    killed, all are reaped, and the files are closed."""

    def wait() -> list:
        codes = []
        while pids:
            _, status = os.waitpid(pids[0], 0)
            pids.pop(0)
            codes.append(os.waitstatus_to_exitcode(status))
        for out in files:
            out.seek(0)
        return list(zip(codes, files))

    pids: list[int] = []
    with contextlib.ExitStack() as stack:
        stack.callback(_stop, pids)
        files = []
        try:
            for start, stop in ranges:
                files.append(stack.enter_context(tempfile.TemporaryFile(dir=dir)))
                pids.append(_fork(work, files[-1], start, stop))
        except OSError:
            _stop(pids)
            files = []
        yield wait if files else None


def _write_rows(fh, t: np.ndarray, arrays: list[np.ndarray], start: int, stop: int) -> None:
    # Python floats cost ~32 bytes each, so convert a chunk at a time
    for lo in range(start, stop, _CHUNK_ROWS):
        chunk = slice(lo, min(lo + _CHUNK_ROWS, stop))
        rows = np.column_stack([t[chunk], *(arr[chunk] for arr in arrays)]).tolist()
        fh.write("".join(
            ",".join([f"{row[0]:.9f}", *map(repr, row[1:])]) + "\n" for row in rows
        ).encode())


def write_csv(path: str | Path, t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    path = Path(path)
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t has shape {t.shape}, expected one dimension")
    labels = list(columns)
    for lab in labels:
        if lab == "t" or any(c in lab for c in ",\r\n"):
            raise ValueError(f"column label {lab!r} is 't' or holds a comma or a line break")
    header = (",".join(["t", *labels]) + "\n").encode()
    arrays = [np.asarray(columns[lab], dtype=float) for lab in labels]
    n = len(t)
    for lab, arr in zip(labels, arrays):
        if arr.shape != (n,):
            raise ValueError(f"column {lab!r} has shape {arr.shape}, expected ({n},)")
    parts = _n_parts(n, _MIN_PART_ROWS)
    bounds = [n * i // parts for i in range(parts + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    with (
        _in_workers(lambda out, lo, hi: _write_rows(out, t, arrays, lo, hi), ranges, path.parent)
        as wait,
        path.open("wb") as fh,
    ):
        fh.write(header)
        _write_rows(fh, t, arrays, 0, bounds[1] if wait else n)
        for (start, stop), (code, part) in zip(ranges, wait() if wait else []):
            if code != 0:
                raise OSError(
                    f"{path}: the worker writing rows {start} to {stop - 1} "
                    f"exited with status {code}"
                )
            shutil.copyfileobj(part, fh)


def _bad_row(path: Path, n_columns: int) -> str | None:
    """The first data line that does not hold ``n_columns`` numbers, by
    ``np.loadtxt``'s rule: a line ends at its first ``#``, and a line left
    empty holds no row."""
    with path.open(encoding="utf-8") as fh:
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


def _parse(fd: int, start: int, stop: int, n_columns: int) -> np.ndarray:
    """Rows in bytes ``start`` up to ``stop`` of file ``fd``, read as one
    ``np.loadtxt`` reads a binary file; a ``ValueError`` unless each holds
    ``n_columns`` numbers."""
    with io.BufferedReader(_ByteRange(fd, start, stop)) as raw:
        rows = np.loadtxt(raw, delimiter=",", ndmin=2)
    if rows.size == 0:
        return np.empty((0, n_columns))
    if rows.shape[1] != n_columns:
        raise ValueError(f"{rows.shape[1]} columns, the header has {n_columns}")
    return rows


def _cuts(fd: int, start: int, size: int, parts: int) -> list[int]:
    """Offsets that split bytes ``start`` up to ``size`` into at most
    ``parts`` ranges of near-equal length, each cut just after a newline."""
    cuts = [start]
    with mmap.mmap(fd, size, access=mmap.ACCESS_READ) as text:
        for i in range(1, parts):
            pos = text.find(b"\n", max(start + (size - start) * i // parts, cuts[-1])) + 1
            if not 0 < pos < size:
                break
            cuts.append(pos)
    return cuts + [size]


def _parse_in_parts(fh, start: int, n_columns: int) -> np.ndarray | None:
    """The rows from byte ``start`` of ``fh``'s file on, parsed by forked
    workers and this process; None where the file gives one part or any
    part fails."""
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    parts = _n_parts(size - start, _MIN_PART_BYTES)
    if parts < 2:
        return None
    cuts = _cuts(fd, start, size, parts)
    with _in_workers(
        lambda out, lo, hi: out.write(_parse(fd, lo, hi, n_columns)),
        list(zip(cuts[1:-1], cuts[2:])),
    ) as wait:
        if wait is None:
            return None
        try:
            first = _parse(fd, cuts[0], cuts[1], n_columns)
        except ValueError:
            return None
        done = wait()
        if any(code for code, _ in done):
            return None
        sizes = [os.fstat(part.fileno()).st_size for _, part in done]
        data = np.empty((len(first) + sum(sizes) // (n_columns * first.itemsize), n_columns))
        data[: len(first)] = first
        received = np.ravel(data).view(np.uint8)[first.nbytes :]
        del first
        for (_, part), nbytes in zip(done, sizes):
            chunk, received = np.split(received, [nbytes])
            if part.readinto(chunk) != nbytes:
                return None
    return data


def read_csv(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    path = Path(path)
    with path.open("rb") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = line.decode("utf-8").rstrip("\r\n").split(",")
        if header[0] != "t":
            raise ValueError(f"{path}: first column must be 't', got {header[:1]}")
        if len(set(header)) != len(header):
            repeated = next(lab for i, lab in enumerate(header) if lab in header[:i])
            raise ValueError(f"{path}: column {repeated!r} appears more than once")
        with warnings.catch_warnings():
            # a header with no rows is the documented empty trace
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = _parse_in_parts(fh, len(line), len(header))
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
