"""Self-tests of the benchmark at toy size.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the package's src/ on sys.path and pins BLAS threads
import scenarios
import tracing
from microdse import config as mconfig

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_the_definition():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == tracing.PER_LAYER[m["name"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_comes_out_with_its_unit(trace):
    results = _result("all", trace)
    assert list(results) == list(scenarios.WORKLOADS)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_traced_counters_repeat_exactly():
    counts = [
        {
            name: m["value"]
            for name, m in _result("mesh30", 1)["metrics"].items()
            if m["unit"] in ("count", "bytes")
        }
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["sim.steps"] > 0 and counts[0]["estimation.local.steps"] > 0


def test_without_the_package_the_benchmark_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "mesh30", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _inject_nan(trace):
    trace.z_state[100, 0] = float("nan")  # bus 1, v_d


def test_nan_measurement_fails_the_in_process_operation():
    raw = scenarios.montecarlo(3, toy=True)[0]
    runner = run.InProcess()
    assert run._checked(runner, raw, {}, 0).problems == []
    op = run._checked(runner, raw, {}, 0, after_simulate=_inject_nan)
    assert op.problems


def test_nan_measurement_fails_the_command_line_operation(tmp_path):
    def inject(measurements: Path):
        lines = measurements.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[101].split(",")
        row[header.index("v_d1")] = "nan"
        lines[101] = ",".join(row)
        measurements.write_text("\n".join(lines) + "\n")

    raw = scenarios.reference(3, toy=True)[0]
    runner = run.CommandLine(tmp_path, deadline=float("inf"))
    op = run._checked(runner, raw, {}, 0, after_simulate=inject)
    assert op.problems
    assert not any("exited" in p for p in op.problems)  # the CLI itself exits 0


def _connected(raw: dict) -> bool:
    n = len(raw["topology"]["dgus"])
    adj = {b: set() for b in range(1, n + 1)}
    for ln in raw["topology"]["lines"]:
        adj[ln["from_bus"]].add(ln["to_bus"])
        adj[ln["to_bus"]].add(ln["from_bus"])
    reached, frontier = {1}, [1]
    while frontier:
        for nb in adj[frontier.pop()] - reached:
            reached.add(nb)
            frontier.append(nb)
    return len(reached) == n


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_grid_is_connected_valid_and_stable(seed):
    raw = scenarios.mesh(seed)[0]
    lines = raw["topology"]["lines"]
    assert len(raw["topology"]["dgus"]) == 30 and len(lines) == 39
    assert all(ln["from_bus"] < ln["to_bus"] for ln in lines)
    assert _connected(raw)
    mconfig.load_scenario_dict(raw)  # schema and topology checks
    assert scenarios.spectral_radius(raw) < 1.0
    for d in raw["topology"]["dgus"]:
        assert scenarios.DGU_R_OHM[0] <= d["r_ohm"] <= scenarios.DGU_R_OHM[1]
        assert scenarios.DGU_C_FARAD[0] <= d["c_farad"] <= scenarios.DGU_C_FARAD[1]
    for ln in lines:
        assert scenarios.LINE_L_HENRY[0] <= ln["l_henry"] <= scenarios.LINE_L_HENRY[1]
    assert raw == scenarios.mesh(seed)[0]


def test_unstable_grid_fails_loudly(monkeypatch):
    monkeypatch.setattr(scenarios, "MESH_DROOP_V_PER_A", 0.5)
    with pytest.raises(scenarios.UnstableGridError):
        scenarios.mesh(1)
