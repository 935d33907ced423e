import contextlib
import errno
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import microdse as m
from microdse import config as cfgmod
from microdse.cli import main
from microdse import traceio
from microdse.traceio import read_csv, write_csv


@pytest.fixture()
def short_config(tmp_path):
    raw = m.bundled_config_dict()
    raw["simulation"]["duration_s"] = 1.0
    raw["simulation"]["loads"]["events"][0]["time_s"] = 0.4
    raw["simulation"]["seed"] = 7
    raw["output"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_simulate_writes_both_traces(short_config, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", short_config, "--out", out) == 0
    t, cols = read_csv(out / "truth.csv")
    assert t.shape == (10001,)
    assert len(cols) == 30  # 18 states + 12 measured inputs
    assert "v_d1" in cols and "i_q23" in cols and "i_od3" in cols
    t2, cols2 = read_csv(out / "measurements.csv")
    np.testing.assert_array_equal(t, t2)
    assert not np.array_equal(cols["v_d1"], cols2["v_d1"])  # noise applied


def test_duration_zero_gives_header_only(short_config, tmp_path):
    out = tmp_path / "empty"
    assert run_cli("simulate", "--config", short_config, "--out", out, "--duration", 0) == 0
    text = (out / "truth.csv").read_text().splitlines()
    assert len(text) == 1
    assert text[0].startswith("t,v_d1,")


@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_non_finite_duration_exits_with_validation_code(short_config, tmp_path, capsys, duration):
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", short_config, "--out", out, "--duration", duration) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid simulation: duration_s must be finite and positive")


@pytest.mark.parametrize("duration", [0, 0.05])
def test_simulate_validates_the_scenario_once(short_config, tmp_path, monkeypatch, duration):
    calls = []
    check = cfgmod._schema_check

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(cfgmod, "_schema_check", counted)
    argv = ("--duration", duration, "--event-time", 0.0)
    assert run_cli("simulate", "--config", short_config, "--out", tmp_path / "o", *argv) == 0
    assert len(calls) == 1


def test_estimate_refuses_a_run_shorter_than_one_global_period(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ("--duration", 0.005, "--event-time", 0.0025, "--out", out)
    assert run_cli("simulate", *argv) == 0
    traces = ("--truth", out / "truth.csv", "--measurements", out / "measurements.csv")
    capsys.readouterr()
    assert run_cli("estimate", *argv, *traces) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the global record holds 1 sample(s) at 100 Hz")
    assert sorted(p.name for p in out.iterdir()) == ["measurements.csv", "truth.csv"]


def test_invalid_electrical_parameter_names_field(tmp_path, capsys):
    raw = m.bundled_config_dict()
    raw["topology"]["lines"][0]["l_henry"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_cli("simulate", "--config", path, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert "l_henry" in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda sim: sim["controller"].update(kp=math.nan), "kp"),
        (lambda sim: sim["controller"].update(ki_per_s=math.inf), "ki"),
        (lambda sim: sim["loads"]["initial_amps"][1].__setitem__(0, math.nan), "initial_loads"),
        (lambda sim: sim["loads"]["events"][0].update(delta_d_amps=math.nan), "delta_d"),
    ],
    ids=["kp", "ki", "initial_amps", "delta_d_amps"],
)
def test_non_finite_setting_exits_with_validation_code(tmp_path, capsys, edit, field):
    raw = m.bundled_config_dict()
    raw["simulation"]["duration_s"] = 0.2
    raw["simulation"]["loads"]["events"][0]["time_s"] = 0.1
    edit(raw["simulation"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
    assert run_cli("simulate", "--config", path, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be finite" in err


@pytest.mark.parametrize(
    "edit, section",
    [
        (lambda raw: raw["simulation"]["controller"].update(kp=math.nan), "simulation.controller"),
        (
            lambda raw: raw["simulation"]["loads"]["events"][0].update(delta_d_amps=math.nan),
            "simulation.loads.events",
        ),
        (
            lambda raw: raw["simulation"]["noise"]["dgu"]["measurement_std"].__setitem__(0, math.nan),
            "simulation.noise.dgu",
        ),
        (
            lambda raw: raw["estimation"]["local_noise"]["process_std"].__setitem__(0, math.nan),
            "estimation.local_noise",
        ),
        (lambda raw: raw["estimation"].update(local_rate_hz=math.nan), "estimation.local_rate_hz"),
        (lambda raw: raw["simulation"].update(step_s=math.nan), "simulation"),
        (
            lambda raw: raw["estimation"]["metrics"].update(tracking_horizon_s=math.nan),
            "estimation.metrics",
        ),
        (
            lambda raw: raw["estimation"]["metrics"]["windows_s"][1].__setitem__(1, math.nan),
            "estimation.metrics",
        ),
    ],
    ids=[
        "kp", "delta_d_amps", "dgu_measurement_std", "local_process_std", "local_rate_hz",
        "step_s", "tracking_horizon_s", "windows_s",
    ],
)
def test_invalid_setting_raises_config_error_naming_its_section(edit, section):
    raw = m.bundled_config_dict()
    edit(raw)
    with pytest.raises(m.ConfigError) as info:
        m.load_scenario_dict(raw)
    assert section in str(info.value)


def test_unknown_config_key_rejected(tmp_path, capsys):
    raw = m.bundled_config_dict()
    raw["simulation"]["typo_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_cli("simulate", "--config", path, "--out", tmp_path / "o") == 1
    assert "typo_key" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"topology": }')
    assert run_cli("simulate", "--config", path, "--out", tmp_path / "o") == 1
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, what",
    [("simulate", "--config", "configuration"), ("report", "--metrics", "metrics")],
)
def test_a_json_file_that_is_not_utf8_names_itself(tmp_path, capsys, command, flag, what):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "\xff"}')
    args = ("--out", tmp_path / "o") if command == "simulate" else ()
    assert run_cli(command, flag, path, *args) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot read {what} {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 10: invalid start byte\n"
    )
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("duration", [0.30006, 0.30004])
def test_a_duration_off_the_plant_step_grid_is_refused(tmp_path, capsys, duration):
    out = tmp_path / "o"
    assert run_cli("simulate", "--duration", duration, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: invalid simulation: duration_s {duration!r} is not a whole number "
        "of plant_step_s 0.0001\n"
    )
    assert not out.exists()


def test_csv_round_trip_is_value_identical(tmp_path):
    rng = np.random.default_rng(12)
    t = np.round(np.arange(50) * 1e-4, 9)
    cols = {
        "a": rng.standard_normal(50) * 1e4,
        "b": rng.standard_normal(50) * 1e-7,
    }
    path = tmp_path / "trace.csv"
    write_csv(path, t, cols)
    t2, cols2 = read_csv(path)
    np.testing.assert_array_equal(t, t2)
    for lab in cols:
        np.testing.assert_array_equal(cols[lab], cols2[lab])


def _per_value_csv(t, columns):
    """The CSV text as written one ``repr(float(value))`` at a time."""
    lines = [",".join(["t", *columns])]
    for k in range(len(t)):
        row = [f"{t[k]:.9f}"]
        row.extend(repr(float(arr[k])) for arr in columns.values())
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [7, 0, 2051], ids=["edge-values", "header-only", "chunks"])
def test_csv_text_matches_per_value_format(tmp_path, rows):
    edge = np.resize([-0.0, 5e-324, 1e16, np.nan, np.inf, -np.inf, 0.1], rows)
    t = np.resize([0.0, 1e-4, 2.5, 1e16, 123456.123456789, 5e-324, -0.0], rows)
    cols = {"edge": edge, "reversed": edge[::-1].copy(), "third": edge / 3.0}
    path = tmp_path / "trace.csv"
    write_csv(path, t, cols)
    assert path.read_bytes() == _per_value_csv(t, cols).encode()


def _env_with_src():
    """The environment, with this checkout's package first on the path."""
    src = str(Path(m.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _record_forks(monkeypatch, cpus):
    """Give ``traceio`` ``cpus`` usable CPUs; the pids of the workers it forks."""
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    pids = []
    fork = traceio._fork

    def recorded(*args):
        pids.append(fork(*args))
        return pids[-1]

    monkeypatch.setattr(traceio, "_fork", recorded)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


SPLIT = 2 * traceio._MIN_PART_ROWS


@pytest.mark.parametrize(
    "rows, cpus",
    [(SPLIT - 1, 2), (SPLIT, 2), (SPLIT + 1, 2), (3 * traceio._MIN_PART_ROWS + 1, 3)],
    ids=["below-split", "at-split", "above-split", "three-parts"],
)
def test_csv_written_in_parts_matches_per_value_format(tmp_path, monkeypatch, rows, cpus):
    pids = _record_forks(monkeypatch, cpus)
    edge = np.resize([-0.0, 5e-324, 1e16, np.nan, np.inf, -np.inf, 0.1], rows)
    t = np.arange(rows) * 1e-4
    cols = {"edge": edge, "reversed": edge[::-1].copy(), "third": edge / 3.0}
    path = tmp_path / "trace.csv"
    write_csv(path, t, cols)
    assert len(pids) == rows // traceio._MIN_PART_ROWS - 1
    assert path.read_bytes() == _per_value_csv(t, cols).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
    _assert_reaped(pids)


def _large_csv_lines(n_rows, comments=True):
    """Data lines of a three-column trace of ``n_rows`` rows, with a blank
    line, a comment line and a trailing comment (if ``comments``) every few
    rows, so that each of them sits next to every cut."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    values[:, 0] = 1.0 + np.arange(n_rows) * 1e-4
    values[::97, 1] = np.nan
    values[::89, 2] = -0.0
    lines = []
    for k, row in enumerate(values.tolist()):
        line = ",".join(map(repr, row))
        lines.append(line + "  # trailing" if comments and k % 7 == 3 else line)
        if k % 5 == 1:
            lines.extend(["", "# comment, 1.0"] if comments else [""])
    return lines


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final-newline", "no-final-newline"])
def test_csv_read_in_parts_matches_one_loadtxt(tmp_path, monkeypatch, newline, final_newline):
    pids = _record_forks(monkeypatch, 3)
    text = newline.join(["t,a,b", *_large_csv_lines(60000)]) + newline * final_newline
    path = tmp_path / "large.csv"
    path.write_bytes(text.encode())
    assert len(text) > 3 * traceio._MIN_PART_BYTES
    parse_in_parts = traceio._parse_in_parts
    from_parts = []
    monkeypatch.setattr(
        traceio, "_parse_in_parts",
        lambda *args: from_parts.append(parse_in_parts(*args)) or from_parts[-1],
    )
    t, cols = read_csv(path)
    assert len(pids) == 2
    _assert_reaped(pids)
    assert from_parts[0] is not None  # not the serial parse after a failed part
    expected = np.loadtxt(path, delimiter=",", skiprows=1)
    got = np.column_stack([t, *cols.values()])
    assert got.shape == expected.shape == (60000, 3)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "bad_line, message",
    [("0.5,abc,1.0", "could not convert string to float: 'abc'"),
     ("0.5,1.0", "has 2 columns, the header has 3"),
     # written as the byte 0xff
     ("0.5,\udcff1.0,2.0", "is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 4")],
    ids=["non-numeric", "ragged", "not-utf8"],
)
def test_csv_read_in_parts_fails_like_the_serial_read(tmp_path, monkeypatch, bad_line, message):
    lines = _large_csv_lines(40000, comments=False)
    lines[-10] = bad_line
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["t,a,b", *lines]) + "\n", errors="surrogateescape")
    assert path.stat().st_size > 2 * traceio._MIN_PART_BYTES
    errors = []
    for cpus in (2, 1):
        pids = _record_forks(monkeypatch, cpus)
        with pytest.raises(ValueError, match=message) as exc:
            read_csv(path)
        assert len(pids) == cpus - 1
        _assert_reaped(pids)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert f"line {len(lines) - 8}" in errors[0]


@pytest.mark.parametrize("fails", ["worker", "caller"])
def test_csv_write_in_parts_fails_without_leftovers(tmp_path, monkeypatch, fails):
    pids = _record_forks(monkeypatch, 2)
    write_rows = traceio._write_rows

    def failing(fh, t, arrays, start, stop):
        if start > 0 and fails == "worker":
            raise OSError("formatter failed")
        if start > 0 and fails == "caller":
            time.sleep(30)  # a worker still busy when the caller fails
        if start == 0 and fails == "caller":
            raise KeyboardInterrupt
        write_rows(fh, t, arrays, start, stop)

    monkeypatch.setattr(traceio, "_write_rows", failing)
    rows = 2 * traceio._MIN_PART_ROWS
    raised = OSError if fails == "worker" else KeyboardInterrupt
    began = time.monotonic()
    with pytest.raises(raised) as exc:
        write_csv(tmp_path / "trace.csv", np.zeros(rows), {"a": np.ones(rows)})
    if fails == "worker":
        assert f"rows {traceio._MIN_PART_ROWS} to {rows - 1}" in str(exc.value)
    else:
        assert time.monotonic() - began < 10  # the busy worker was stopped, not awaited
    assert len(pids) == 1
    _assert_reaped(pids)
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


_KILLED_WRITER = """
import os
import signal
import sys

import numpy as np

from microdse import traceio

traceio._usable_cpus = lambda: 2
write_rows = traceio._write_rows


def killed(fh, t, arrays, start, stop):
    if start == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    write_rows(fh, t, arrays, start, stop)


traceio._write_rows = killed
rows = 2 * traceio._MIN_PART_ROWS + 1
traceio.write_csv(sys.argv[1], np.zeros(rows), {"a": np.ones(rows)})
"""


def test_csv_writer_killed_leaves_only_its_target(tmp_path):
    """A writer killed by SIGKILL while its worker formats rows leaves no
    part file next to its target."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WRITER, str(tmp_path / "trace.csv")],
        env=_env_with_src(),
        start_new_session=True,
    )
    try:
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        # the worker may outlive the writer: stop the whole session
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def _fail_forks_after(monkeypatch, started):
    """Make ``os.fork`` fail with EAGAIN once ``started`` forks succeeded."""
    fork = os.fork
    calls = []

    def failing():
        calls.append(None)
        if len(calls) > started:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing)


def test_csv_write_takes_the_serial_path_when_a_fork_fails(tmp_path, monkeypatch):
    rows = 3 * traceio._MIN_PART_ROWS + 1
    edge = np.resize([-0.0, 5e-324, 1e16, np.nan, np.inf, -np.inf, 0.1], rows)
    t = np.arange(rows) * 1e-4
    cols = {"edge": edge, "third": edge / 3.0}
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 1)
    write_csv(tmp_path / "one-cpu.csv", t, cols)
    pids = _record_forks(monkeypatch, 3)
    _fail_forks_after(monkeypatch, 1)
    (tmp_path / "parts").mkdir()
    write_csv(tmp_path / "parts" / "trace.csv", t, cols)
    assert len(pids) == 1  # the worker started before the failed fork
    _assert_reaped(pids)
    assert [p.name for p in (tmp_path / "parts").iterdir()] == ["trace.csv"]
    assert (tmp_path / "parts" / "trace.csv").read_bytes() == (tmp_path / "one-cpu.csv").read_bytes()


def test_csv_read_takes_the_serial_path_when_a_fork_fails(tmp_path, monkeypatch):
    path = tmp_path / "large.csv"
    path.write_text("\n".join(["t,a,b", *_large_csv_lines(60000)]) + "\n")
    assert path.stat().st_size > 3 * traceio._MIN_PART_BYTES
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 1)
    t, cols = read_csv(path)
    pids = _record_forks(monkeypatch, 3)
    _fail_forks_after(monkeypatch, 1)
    t_parts, cols_parts = read_csv(path)
    assert len(pids) == 1
    _assert_reaped(pids)
    assert list(cols_parts) == list(cols)
    got = np.column_stack([t_parts, *cols_parts.values()])
    assert got.tobytes() == np.column_stack([t, *cols.values()]).tobytes()


@pytest.mark.parametrize(
    "t_shape, label, message",
    [((SPLIT, 2), "a", r"t has shape \(\d+, 2\)"),
     ((SPLIT,), "t", "label 't'"),
     ((SPLIT,), "a,b", "label 'a,b'"),
     ((SPLIT,), "a\nb", r"label 'a\\nb'"),
     ((SPLIT,), "a\rb", r"label 'a\\rb'")],
    ids=["t-two-dimensional", "label-t", "label-comma", "label-lf", "label-cr"],
)
def test_csv_write_rejects_what_read_csv_would_not_read_back(
    tmp_path, monkeypatch, t_shape, label, message
):
    pids = _record_forks(monkeypatch, 2)
    with pytest.raises(ValueError, match=message):
        write_csv(tmp_path / "trace.csv", np.zeros(t_shape), {label: np.zeros(SPLIT)})
    assert pids == []
    assert list(tmp_path.iterdir()) == []


def test_header_only_csv_reads_as_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, np.empty(0), {"a": np.empty(0), "b": np.empty(0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, cols = read_csv(path)
    assert t.shape == (0,)
    assert list(cols) == ["a", "b"]
    assert all(c.shape == (0,) for c in cols.values())


def test_csv_ragged_row_names_the_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,a,b\n0.0,1.0,2.0\n0.1,1.0\n0.2,1.0,2.0\n")
    with pytest.raises(ValueError, match="line 3 has 2 columns"):
        read_csv(path)
    path.write_text("t,a,b\n0.0,1.0\n")
    with pytest.raises(ValueError, match="line 2 has 2 columns"):
        read_csv(path)
    path.write_text("t,a\n0.0,1.0\n0.1,abc\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(path)
    # a comment holds no columns, on a line of its own or after a row
    path.write_text("t,a,b\n1,2,3\n\n# comment, 1.0\n4,5,6\n0.5,abc,1.0\n")
    with pytest.raises(ValueError, match="line 6: could not convert string to float: 'abc'"):
        read_csv(path)
    path.write_text("t,a,b\n1,2,3 # note, x\n4,5\n")
    with pytest.raises(ValueError, match="line 3 has 2 columns, the header has 3"):
        read_csv(path)


@pytest.mark.parametrize("header", ["t,v_d1,v_d1", "t,a,t"])
def test_csv_repeated_column_names_the_file_and_label(tmp_path, header):
    path = tmp_path / "repeated.csv"
    path.write_text(f"{header}\n0.0,1.0,2.0\n")
    label = header.split(",")[-1]
    with pytest.raises(ValueError, match=f"repeated.csv: column '{label}' appears more than once"):
        read_csv(path)


def test_estimate_rejects_a_repeated_trace_column(short_config, tmp_path, capsys):
    out = tmp_path / "rep"
    assert run_cli("simulate", "--config", short_config, "--out", out) == 0
    lines = (out / "truth.csv").read_text().splitlines()
    # append a second copy of v_d1 to every row
    col = lines[0].split(",").index("v_d1")
    (out / "truth.csv").write_text(
        "\n".join(f"{line},{line.split(',')[col]}" for line in lines) + "\n"
    )
    assert run_cli(
        "estimate", "--config", short_config, "--out", out,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "truth.csv: column 'v_d1' appears more than once" in err


@pytest.mark.parametrize("lineno", [1, 3], ids=["header", "data-line"])
def test_estimate_names_the_line_of_a_trace_that_is_not_utf8(tmp_path, capsys, lineno):
    out = tmp_path / "bytes"
    run = ("--duration", 0.05, "--event-time", 0.025, "--out", out)
    assert run_cli("simulate", *run) == 0
    path = out / "measurements.csv"
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1].replace(b",", b",\xff", 1)
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli("estimate", *run, "--truth", out / "truth.csv", "--measurements", path) == 1
    position = lines[lineno - 1].index(0xFF)
    assert capsys.readouterr().err == (
        f"error: {path}: line {lineno} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
        f"in position {position}: invalid start byte\n"
    )


def test_csv_nan_tokens_parse(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("t,a\n0.0,nan\n0.1,1.5\n")
    t, cols = read_csv(path)
    np.testing.assert_array_equal(t, [0.0, 0.1])
    np.testing.assert_array_equal(cols["a"], [np.nan, 1.5])


def test_same_seed_reruns_are_byte_identical(short_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("simulate", "--config", short_config, "--out", out1) == 0
    assert run_cli("simulate", "--config", short_config, "--out", out2) == 0
    for name in ("truth.csv", "measurements.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_measurements_not_truth(short_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("simulate", "--config", short_config, "--out", out1) == 0
    assert run_cli("simulate", "--config", short_config, "--out", out2, "--seed", 8) == 0
    # no process noise configured: the truth is seed-independent
    assert (out1 / "truth.csv").read_bytes() == (out2 / "truth.csv").read_bytes()
    assert (out1 / "measurements.csv").read_bytes() != (out2 / "measurements.csv").read_bytes()


def test_event_time_override_moves_the_step(short_config, tmp_path):
    out = tmp_path / "ev"
    assert run_cli(
        "simulate", "--config", short_config, "--out", out, "--event-time", 0.8
    ) == 0
    _, cols = read_csv(out / "truth.csv")
    io = cols["i_od1"]
    assert abs(io[8000] - io[7999]) > 100.0  # step lands at t=0.8
    assert abs(io[4000] - io[3999]) < 50.0  # and no longer at t=0.4


def test_estimate_end_to_end_with_metrics(short_config, tmp_path):
    out = tmp_path / "full"
    assert run_cli("simulate", "--config", short_config, "--out", out) == 0
    assert run_cli(
        "estimate",
        "--config", short_config,
        "--out", out,
        "--truth", out / "truth.csv",
        "--measurements", out / "measurements.csv",
    ) == 0
    for name in ("local_bus1.csv", "local_bus2.csv", "local_bus3.csv", "global.csv"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics["channels"]) >= {"v_d1", "i_td1", "i_d12", "i_q23"}
    for entry in metrics["channels"].values():
        assert entry["windows"], entry
        for w in entry["windows"]:
            assert w["improvement_ratio"] is not None
    assert metrics["innovation"]["local_bus1"]["dim"] == 4
    assert metrics["tracking"]["local_bus1"][0]["recovery_time_s"] is not None


def test_estimate_with_euler_discretization(short_config, tmp_path):
    """The estimators on the Euler models: the run exits 0 with finite
    metrics (a NaN reaching numpy fails it through the RuntimeWarning
    filter), and its estimates differ from those on the exact models."""
    sim = tmp_path / "sim"
    common = ["--config", short_config, "--duration", 0.2, "--event-time", 0.1]
    assert run_cli("simulate", *common, "--out", sim) == 0
    traces = ["--truth", sim / "truth.csv", "--measurements", sim / "measurements.csv"]
    for method in ("euler", "exact"):
        out = tmp_path / method
        assert run_cli("estimate", *common, *traces, "--out", out, "--discretization", method) == 0

    def non_finite(token):
        raise AssertionError(f"metrics.json holds {token}")

    text = (tmp_path / "euler" / "metrics.json").read_text()
    metrics = json.loads(text, parse_constant=non_finite)
    assert metrics["channels"]["v_d1"]["windows"]
    euler, exact = (
        read_csv(tmp_path / method / "local_bus1.csv")[1]["v_d1"] for method in ("euler", "exact")
    )
    assert np.isfinite(euler).all() and not np.array_equal(euler, exact)


def test_zero_noise_estimates_are_numerically_exact(tmp_path):
    raw = m.bundled_config_dict()
    raw["simulation"]["duration_s"] = 1.0
    raw["simulation"]["loads"]["events"] = []
    for section in ("dgu", "line"):
        for key in raw["simulation"]["noise"][section]:
            raw["simulation"]["noise"][section][key] = [
                0.0 for _ in raw["simulation"]["noise"][section][key]
            ]
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "quiet"
    assert run_cli("simulate", "--config", path, "--out", out) == 0
    assert run_cli(
        "estimate", "--config", path, "--out", out,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 0
    truth_t, truth_cols = read_csv(out / "truth.csv")
    for bus in (1, 2, 3):
        _, est_cols = read_csv(out / f"local_bus{bus}.csv")
        for lab in (f"v_d{bus}", f"i_tq{bus}"):
            tail = slice(len(truth_t) // 2, None)
            assert np.abs(est_cols[lab][tail] - truth_cols[lab][tail]).max() < 1e-6


def test_metrics_stable_across_seeds(short_config, tmp_path):
    ratios = {}
    for seed in (7, 8):
        out = tmp_path / f"seed{seed}"
        assert run_cli("simulate", "--config", short_config, "--out", out, "--seed", seed) == 0
        assert run_cli(
            "estimate", "--config", short_config, "--out", out, "--seed", seed,
            "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        ratios[seed] = {
            label: entry["windows"][0]["improvement_ratio"]
            for label, entry in metrics["channels"].items()
        }
    assert ratios[7] != ratios[8]
    for seed in (7, 8):
        assert all(r < 1.0 for r in ratios[seed].values()), ratios[seed]
    for label in ratios[7]:
        assert abs(ratios[7][label] - ratios[8][label]) < 0.3


def test_estimate_rejects_misaligned_traces(short_config, tmp_path, capsys):
    out = tmp_path / "mis"
    assert run_cli("simulate", "--config", short_config, "--out", out) == 0
    lines = (out / "measurements.csv").read_text().splitlines()
    (out / "measurements.csv").write_text("\n".join(lines[:-10]) + "\n")
    assert run_cli(
        "estimate", "--config", short_config, "--out", out,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 1
    assert "aligned" in capsys.readouterr().err


def test_estimate_reads_the_time_grid_from_the_scenario(tmp_path):
    # at 30 kHz the CSV's 9-decimal times put t[1] - t[0] off the step
    raw = m.bundled_config_dict()
    raw["simulation"]["step_s"] = 1.0 / 30000.0
    raw["simulation"]["duration_s"] = 0.3
    raw["simulation"]["loads"]["events"][0]["time_s"] = 0.15
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "fast"
    assert run_cli("simulate", "--config", path, "--out", out) == 0
    assert run_cli(
        "estimate", "--config", path, "--out", out,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 0
    scn = m.load_scenario_dict(raw)
    metrics = m.compute_metrics(scn, m.estimate_scenario(scn, m.simulate_scenario(scn)))
    assert (out / "metrics.json").read_text() == json.dumps(
        metrics, indent=2, sort_keys=True
    ) + "\n"


def test_estimate_rejects_times_off_the_scenario_grid(short_config, tmp_path, capsys):
    out = tmp_path / "shifted"
    assert run_cli("simulate", "--config", short_config, "--out", out) == 0
    for name in ("truth.csv", "measurements.csv"):
        t, cols = read_csv(out / name)
        t[3:] += 5e-5
        write_csv(out / name, t, cols)
    assert run_cli(
        "estimate", "--config", short_config, "--out", out,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 5 has t=0.00035" in err


def test_report_outputs(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run_cli("report", "--metrics", empty) == 0
    assert "no data" in capsys.readouterr().out

    metrics = {
        "scenario": "x",
        "seed": 1,
        "channels": {
            "v_d1": {
                "kind": "local",
                "windows": [
                    {
                        "window_s": [1.0, 2.0],
                        "rmse_estimate": 1.0,
                        "rmse_measurement": 4.0,
                        "improvement_ratio": 0.25,
                    }
                ],
            }
        },
        "innovation": {"local_bus1": {"mean_nis": 4.0, "dim": 4}},
        "tracking": {"local_bus1": [{"event_time_s": 2.0, "recovery_time_s": 0.01}]},
    }
    full = tmp_path / "metrics.json"
    full.write_text(json.dumps(metrics))
    assert run_cli("report", "--metrics", full) == 0
    out = capsys.readouterr().out
    assert "v_d1" in out and "0.250" in out

    broken = tmp_path / "broken.json"
    broken.write_text("not json")
    assert run_cli("report", "--metrics", broken) == 1


@pytest.mark.parametrize(
    "metrics, section",
    [
        ({"channels": [1]}, "channels"),
        ({"channels": {"v_d1": {}}}, "channels.v_d1"),
        ({"innovation": {"global": {"dim": 4}}}, "innovation.global"),
    ],
    ids=["channels-list", "channel-without-windows", "innovation-without-mean-nis"],
)
def test_report_rejects_malformed_sections(tmp_path, capsys, metrics, section):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics))
    assert run_cli("report", "--metrics", path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: invalid metrics at {section}: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_bundled_config_matches_reference_parameters():
    raw = m.bundled_config_dict()
    topo = raw["topology"]
    assert topo["frequency_hz"] == 60.0
    dgus = {d["bus"]: d for d in topo["dgus"]}
    assert dgus[1]["r_ohm"] == 1.1e-3 and dgus[1]["l_henry"] == 90e-6
    assert dgus[1]["c_farad"] == 50e-6
    assert dgus[2]["r_ohm"] == 1.3e-3 and dgus[2]["l_henry"] == 100e-6
    assert dgus[2]["c_farad"] == 55e-6
    assert dgus[3]["r_ohm"] == 0.9e-3 and dgus[3]["l_henry"] == 110e-6
    assert dgus[3]["c_farad"] == 60e-6
    lines = {(ln["from_bus"], ln["to_bus"]): ln for ln in topo["lines"]}
    assert lines[(1, 2)]["r_ohm"] == 1.1 and lines[(1, 2)]["l_henry"] == 0.52e-3
    assert lines[(1, 3)]["r_ohm"] == 0.9 and lines[(1, 3)]["l_henry"] == 0.44e-3
    assert lines[(2, 3)]["r_ohm"] == 1.3 and lines[(2, 3)]["l_henry"] == 0.67e-3
    sim = raw["simulation"]
    assert sim["step_s"] == 0.0001
    assert sim["nominal_voltage_ll_rms"] == 13800.0
    assert sim["duration_s"] == 4.0
    assert sim["loads"]["events"][0]["time_s"] == 2.0
    assert raw["estimation"]["local_rate_hz"] == 10000.0
    assert raw["estimation"]["global_rate_hz"] == 100.0


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("simulate", "--config", tmp_path / "nope.json", "--out", tmp_path) == 1
    assert "nope.json" in capsys.readouterr().err


def test_usage_error_exits_with_validation_code(capsys):
    assert run_cli("estimate") == 1  # missing required --truth/--measurements


@pytest.mark.parametrize(
    "content, argv",
    [
        ("[]", ["simulate", "--config", "{path}"]),
        ("[]", ["estimate", "--config", "{path}", "--seed", 3,
                "--truth", "truth.csv", "--measurements", "measurements.csv"]),
        ("[]", ["report", "--metrics", "{path}"]),
        ('{"simulation": 5}', ["simulate", "--config", "{path}"]),
        ('{"simulation": 5}', ["simulate", "--config", "{path}", "--seed", 3,
                               "--event-time", 0.1]),
    ],
    ids=["simulate", "estimate-seed", "report", "simulate-section", "simulate-section-overrides"],
)
def test_json_that_is_not_the_expected_object_exits_with_validation_code(
    tmp_path, capsys, content, argv
):
    path = tmp_path / "odd.json"
    path.write_text(content)
    args = [path if a == "{path}" else a for a in argv]
    if argv[0] != "report":
        args += ["--out", tmp_path / "o"]
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_same_seed_metrics_are_byte_identical(short_config, tmp_path):
    texts = []
    for run in ("m1", "m2"):
        out = tmp_path / run
        assert run_cli("simulate", "--config", short_config, "--out", out) == 0
        assert run_cli(
            "estimate", "--config", short_config, "--out", out,
            "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
        ) == 0
        texts.append((out / "metrics.json").read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["tracking"]["local_bus1"][0]["recovery_time_s"] is not None


def test_grid_without_lines_fails_estimate_with_a_plain_error(tmp_path, capsys):
    raw = m.bundled_config_dict()
    raw["topology"]["dgus"] = raw["topology"]["dgus"][:1]
    raw["topology"]["lines"] = []
    sim = raw["simulation"]
    sim["duration_s"] = 0.2
    sim["controller"]["reference_scale"] = sim["controller"]["reference_scale"][:1]
    sim["loads"]["initial_amps"] = sim["loads"]["initial_amps"][:1]
    sim["loads"]["events"] = []
    path = tmp_path / "one_bus.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "one"
    assert run_cli("simulate", "--config", path, "--out", out) == 0
    capsys.readouterr()
    assert run_cli(
        "estimate", "--config", path, "--out", out,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "global estimator needs at least one line" in err


@pytest.mark.parametrize(
    "event_time, problem",
    [
        (0, "event at 0.0 s: pre-event window holds no samples"),
        # at the last sample, or between the last two: the horizon holds
        # no sample after the event's first
        (0.3, "event at 0.3 s: recovery horizon holds no sample after the event's first"),
        (0.29995, "event at 0.29995 s: recovery horizon holds no sample after the event's first"),
    ],
    ids=["zero", "last-sample", "before-last-sample"],
)
def test_event_at_time_zero_fails_estimate_with_a_plain_error(
    short_config, tmp_path, capsys, event_time, problem
):
    out = tmp_path / "ev"
    common = ("--config", short_config, "--out", out, "--duration", 0.3, "--event-time", event_time)
    assert run_cli("simulate", *common) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(
            "estimate", *common,
            "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
        ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert problem in err
    # scoring fails before any estimate is written
    assert sorted(p.name for p in out.iterdir()) == ["measurements.csv", "truth.csv"]


def test_derived_windows_leave_out_a_window_the_run_has_no_room_for(short_config, tmp_path):
    # the derived post-event window would start 0.5 s after the event,
    # at the end of the run: [0.5, 0.5] holds one sample
    out = tmp_path / "late"
    common = ("--config", short_config, "--out", out, "--duration", 0.5, "--event-time", 0.25)
    assert run_cli("simulate", *common) == 0
    assert run_cli(
        "estimate", *common,
        "--truth", out / "truth.csv", "--measurements", out / "measurements.csv",
    ) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["windows_s"] == [[0.125, 0.25]]
    for channel in metrics["channels"].values():
        assert [w["window_s"] for w in channel["windows"]] == [[0.125, 0.25]]


_WITHOUT_SCIPY = """
import sys

import microdse.cli

blocked = ("jsonschema", "scipy")
loaded = sorted(name for name in sys.modules if name.split(".")[0] in blocked)
assert not loaded, f"importing microdse.cli loaded {loaded}"
# from here on, any import of jsonschema or scipy fails
sys.modules.update(dict.fromkeys(blocked))
out = sys.argv[1]
run = ["--duration", "0.05", "--event-time", "0.025", "--out", out]
for argv in (
    ["simulate", *run],
    ["estimate", *run, "--truth", out + "/truth.csv", "--measurements", out + "/measurements.csv"],
    ["report", "--metrics", out + "/metrics.json"],
):
    code = microdse.cli.main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_command_line_runs_without_scipy(tmp_path):
    """scipy and jsonschema are test dependencies only: the commands
    neither load them nor need them."""
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "out")],
        env=_env_with_src(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())["channels"]


_REPORT_ALONE = """
import sys

from microdse.cli import main

code = main(["report", "--metrics", sys.argv[1]])
loaded = sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "jsonschema"))
assert not loaded, f"report loaded {loaded}"
sys.exit(code)
"""


def test_report_loads_neither_numpy_nor_jsonschema(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({
        "channels": {"v_d1": {"windows": [{
            "window_s": [1.0, 2.0], "rmse_estimate": 1.0, "rmse_measurement": 4.0,
            "improvement_ratio": 0.25,
        }]}},
    }))
    done = subprocess.run(
        [sys.executable, "-c", _REPORT_ALONE, str(path)],
        env=_env_with_src(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "v_d1" in done.stdout


#: Every name the package exported when it imported its submodules eagerly,
#: by the submodule that defines it.
_EXPORTED = {
    "config": [
        "ConfigError", "EstimationSettings", "MetricsSettings", "ScenarioConfig",
        "bundled_config_dict", "bundled_scenario", "load_scenario", "load_scenario_dict",
    ],
    "discretize": [
        "CONDITION_LIMIT", "DiscreteLtiModel", "discretize_euler", "discretize_exact",
        "matrix_exponential",
    ],
    "estimation": [
        "EstimateTrace", "GlobalEstimator", "LocalEstimator", "build_global_estimator",
        "build_local_estimator", "global_input_covariance", "local_posterior_covariance",
        "rmse", "run_global", "run_local", "run_locals", "tracking_recovery_time",
    ],
    "kalman": [
        "KalmanEstimator", "NoiseSpec", "effective_process_noise", "steady_state_covariance",
    ],
    "models": [
        "ContinuousLtiModel", "DguParams", "LineParams", "MicrogridTopology",
        "build_coupled_plant", "build_dgu_model", "build_line_model",
    ],
    "pipeline": ["EstimationResult", "compute_metrics", "estimate_scenario", "simulate_scenario"],
    "sim": [
        "EventSchedule", "LoadStep", "RegulatorConfig", "SimConfig", "SimNoise",
        "SimulationDivergedError", "Trace", "closed_loop_matrix", "downsample", "run_plant",
    ],
}


def test_package_exports_each_name_of_its_submodules():
    listed = dir(m)
    for module_name, names in _EXPORTED.items():
        module = importlib.import_module(f"microdse.{module_name}")
        assert getattr(m, module_name) is module and module_name in listed
        for name in names:
            assert getattr(m, name) is getattr(module, name), name
            assert name in listed and name in m.__all__, name
    assert m.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        m.nothing
