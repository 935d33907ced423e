#!/usr/bin/env python3
"""microdse benchmark: one workload per run, closed loop, outputs checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

Workloads (inputs generated from ``--seed`` in ``scenarios.py``):

* ``reference_cli``: the bundled three-bus scenario, 4 s at 10 kHz, through
  ``microdse simulate`` -> ``estimate`` -> ``report`` subprocesses.  The
  documented user path and the only one where ``traceio`` and ``cli`` work.
* ``montecarlo_short``: the reference grid over 24 noise seeds x 0.2 s, in
  process.  Every seed pays the per-scenario fixed cost again, and ~11% of
  its covariance updates come before the local gains converge.
* ``mesh30``: a seeded 30-bus meshed grid, 0.5 s, global filter at 1 kHz,
  in process.  The widest matrices and 30 independent local filters.

An operation is one scenario, from its inputs to its metrics.  Operations
run back to back in this one process (the command-line workload waits on
one child at a time), BLAS pinned to one thread.  Each run completes the
workload's batch of scenarios once and repeats it while the next operation
still fits in ``--seconds``; a repeated scenario must reproduce its
metrics exactly.  An operation fails if it raises or fails the output check:
finite estimates and metrics, every local channel's estimate/measurement
RMSE ratio <= 0.5 in every window (the paper's >= 2x claim; global
channels, scored on a few samples per window, only have to be finite), and
for the command line every command exiting 0 and writing all of its files.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median wall time of ``load_scenario_dict`` +
  ``simulate_scenario`` + ``estimate_scenario`` on the workload's scenario
  cut to one global-filter period with no events, repeated through the run;
* ``scenario_s``: median wall time of an operation (for ``reference_cli``
  the three commands, interpreter start-up included);
* ``bus_samples_per_s``: buses x local samples of the passing operations
  over the time of all operations;
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  command-line child;
* ``worst_rmse_ratio``: largest local-channel RMSE ratio over every window
  and scenario; fixed for a seed, so it moves only if the numbers change;
* ``error_rate``: failed / attempted operations, printed here and carried
  by the ``failed`` and ``attempted`` fields of the result.

``--trace 1`` runs each scenario of the batch untraced and then traced (see
``tracing.py``), checks for ``reference_cli`` that an in-process replay
scores the scenario exactly as the command line's ``metrics.json``, and
prints the per-layer metrics.  ``--workload all`` runs every workload, each
in a fresh process.  The last line of standard output is the JSON result.

Self-tests: ``python3 -m pytest benchmarks/test_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"

# Set before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONPATH"] = str(SRC)
sys.path.insert(0, str(SRC))

#: Stop starting operations once a run has used this many seconds.
DEADLINE_S = 165.0
#: Set-up repeats are spread over the run, because the machine's speed
#: drifts over seconds: this many at the start, then after every
#: operation or command for this share of its time (at least one).
SETUP_FIRST = 5
SETUP_SHARE = 0.1
#: Largest local-channel RMSE ratio an operation may report.
RATIO_GATE = 0.5

END_TO_END = {
    "setup_s": "s",
    "scenario_s": "s",
    "bus_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "worst_rmse_ratio": "ratio",
}


@dataclass
class Op:
    """One operation's timing, outputs and the problems found in them."""

    seconds: float = 0.0
    bus_samples: int = 0
    metrics: dict | None = None
    problems: list[str] = field(default_factory=list)
    commands: dict[str, float] = field(default_factory=dict)
    startup: list[float] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)


def _check_metrics(metrics: dict) -> list[str]:
    problems = []
    for label, channel in metrics["channels"].items():
        for w in channel["windows"]:
            values = (w["rmse_estimate"], w["rmse_measurement"], w["improvement_ratio"])
            if not all(v is not None and math.isfinite(v) for v in values):
                problems.append(f"{label} {w['window_s']}: non-finite metric {values}")
            elif channel["kind"] == "local" and w["improvement_ratio"] > RATIO_GATE:
                problems.append(
                    f"{label} {w['window_s']}: RMSE ratio "
                    f"{w['improvement_ratio']:.4f} > {RATIO_GATE}"
                )
    for name, entry in metrics["innovation"].items():
        if not math.isfinite(entry["mean_nis"]):
            problems.append(f"{name}: non-finite mean NIS")
    for name, events in metrics["tracking"].items():
        for ev in events:
            rec = ev["recovery_time_s"]
            if rec is not None and not math.isfinite(rec):
                problems.append(f"{name}: non-finite recovery time")
    return problems


def worst_ratio(metrics: dict) -> float:
    return max(
        w["improvement_ratio"]
        for ch in metrics["channels"].values()
        if ch["kind"] == "local"
        for w in ch["windows"]
    )


def _bus_samples(raw: dict) -> int:
    sim, est = raw["simulation"], raw["estimation"]
    samples = int(round(sim["duration_s"] * est["local_rate_hz"])) + 1
    return len(raw["topology"]["dgus"]) * samples


class InProcess:
    """Operations through the pipeline entry points, in this process."""

    def __init__(self):
        from microdse import config, pipeline

        self.config = config
        self.pipeline = pipeline

    def run(self, raw: dict, after_simulate=None, between=None) -> Op:
        import numpy as np

        op = Op(bus_samples=_bus_samples(raw))
        t0 = time.perf_counter()
        scn = self.config.load_scenario_dict(raw)
        trace = self.pipeline.simulate_scenario(scn)
        if after_simulate is not None:
            after_simulate(trace)
        result = self.pipeline.estimate_scenario(scn, trace)
        op.metrics = self.pipeline.compute_metrics(scn, result)
        op.seconds = time.perf_counter() - t0
        if between is not None:
            between(op.seconds)
        estimates = [*result.local_estimates.values(), result.global_estimate]
        if not all(np.isfinite(e.x_hat).all() for e in estimates):
            op.problems.append("non-finite estimates")
        return op


class CommandLine:
    """Operations as ``simulate`` -> ``estimate`` -> ``report`` subprocesses."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def _command(self, op: Op, name: str, argv: list[str], traced: bool) -> bool:
        spans_path = self.work / f"spans-{name}.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "microdse.cli"]
        t_spawn = time.time()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*cmd, name, *argv],
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        op.commands[f"{name}_s"] = time.perf_counter() - t0
        if traced:
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            op.startup.append(child["t_main"] - t_spawn)
            tracing.merge(op.spans, child["spans"], None)
            for layer, n in child["errors"].items():
                op.errors[layer] = op.errors.get(layer, 0) + n
        if proc.returncode != 0:
            op.errors["cli"] = op.errors.get("cli", 0) + 1
            op.problems.append(
                f"microdse {name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
            return False
        return True

    def run(self, raw: dict, traced: bool = False, after_simulate=None, between=None) -> Op:
        import numpy as np

        op = Op(bus_samples=_bus_samples(raw))
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        config = self.work / "scenario.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        common = ["--config", str(config), "--out", str(out)]
        truth, meas, metrics = out / "truth.csv", out / "measurements.csv", out / "metrics.json"
        n_buses = len(raw["topology"]["dgus"])
        estimates = [out / f"local_bus{b}.csv" for b in range(1, n_buses + 1)]
        estimates.append(out / "global.csv")
        steps = (
            ("simulate", common, [truth, meas]),
            ("estimate", [*common, "--truth", str(truth), "--measurements", str(meas)],
             [*estimates, metrics]),
            ("report", ["--metrics", str(metrics)], []),
        )
        for name, argv, files in steps:
            if not self._command(op, name, argv, traced):
                break
            if between is not None:
                between(op.commands[f"{name}_s"])
            missing = [f.name for f in files if not f.is_file()]
            if missing:
                op.problems.append(f"microdse {name} did not write {missing}")
                break
            if name == "simulate" and after_simulate is not None:
                after_simulate(meas)
        op.seconds = sum(op.commands.values())
        if op.problems:
            return op
        op.metrics = json.loads(metrics.read_text(encoding="utf-8"))
        for path in estimates:
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            if not np.isfinite(data[:, :-1]).all():  # last column is NIS
                op.problems.append(f"non-finite estimates in {path.name}")
        shutil.rmtree(out, ignore_errors=True)
        return op


def _checked(runner, raw: dict, seen: dict, index: int, **kwargs) -> Op:
    """Run one operation; a raise or a failed check is recorded, not dropped."""
    try:
        op = runner.run(raw, **kwargs)
    except Exception as exc:  # the operation failed; keep measuring the rest
        op = Op(problems=[f"{type(exc).__name__}: {exc}"])
    if op.metrics is not None:
        op.problems.extend(_check_metrics(op.metrics))
        if index in seen and seen[index] != op.metrics:
            op.problems.append("metrics differ from an earlier run of the same scenario")
        seen.setdefault(index, op.metrics)
    for problem in op.problems[:5]:
        print(f"operation {index} failed: {problem}", file=sys.stderr)
    return op


class SetupTimer:
    """Wall time of the pipeline on the one-period, event-free cut."""

    def __init__(self, raw: dict):
        from microdse import config, pipeline

        self.raw = raw
        self.config = config
        self.pipeline = pipeline
        self.times: list[float] = []
        self.sample(0.0)  # warms caches and lazy imports; not recorded
        self.times.clear()

    def _once(self) -> float:
        t0 = time.perf_counter()
        scn = self.config.load_scenario_dict(self.raw)
        self.pipeline.estimate_scenario(scn, self.pipeline.simulate_scenario(scn))
        return time.perf_counter() - t0

    def sample(self, budget_s: float, at_least: int = 1) -> None:
        spent = 0.0
        for _ in range(at_least):
            self.times.append(self._once())
            spent += self.times[-1]
        while spent < budget_s:
            self.times.append(self._once())
            spent += self.times[-1]

    def median(self) -> float:
        return statistics.median(self.times)


def convergence_steps(raw: dict, steps: int) -> dict[int, int]:
    """Per bus, the first local filter step after which P is within 1e-12
    (relative) of its steady state; ``steps`` if that is never reached."""
    import numpy as np
    from microdse import config, estimation, pipeline

    scn = config.load_scenario_dict(raw)
    out = {}
    for est in pipeline.build_local_estimators(scn):
        p_inf = estimation.local_posterior_covariance(est)
        tol = 1e-12 * np.abs(p_inf).max()
        zero_u, zero_z = np.zeros(est.kf.model.n_inputs), np.zeros(est.kf.n_states)
        out[est.bus] = steps
        for k in range(1, steps + 1):
            est.kf.step(zero_u, zero_z)
            if np.abs(est.kf.p - p_inf).max() <= tol:
                out[est.bus] = k
                break
    return out


def run_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "git_commit": commit,
    }


def _closed_loop(runner, batch, seconds, deadline, seen, setup: SetupTimer) -> list[Op]:
    """The batch once, then repeats while the next operation fits.

    Set-up is sampled between operations, and between the commands of a
    command-line operation, for a share of the time just measured."""
    ops: list[Op] = []
    start = time.monotonic()

    def between(seconds: float) -> None:
        setup.sample(SETUP_SHARE * seconds)

    while True:
        i = len(ops)
        k = i % len(batch)
        ops.append(_checked(runner, batch[k], seen, k, between=between))
        now = time.monotonic()
        last = max(ops[-1].seconds, 1e-3)
        if i + 1 >= len(batch) and (
            now - start + last > seconds or now + last > deadline
        ):
            return ops


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    import scenarios

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*scenarios.WORKLOADS, "all"],
        help="one workload, or all of them, each in a fresh process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    deadline = time.monotonic() + DEADLINE_S

    facts = run_facts(args.seed)
    print("run facts:", json.dumps(facts, sort_keys=True))
    batch = scenarios.WORKLOADS[args.workload](args.seed, toy=args.toy)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    cli = args.workload == "reference_cli"
    runner = CommandLine(work, deadline) if cli else InProcess()
    seen: dict[int, dict] = {}
    try:
        if args.trace:
            result = traced_run(runner, batch, seen, cli, args, work, facts)
        else:
            result = timed_run(runner, batch, seen, cli, args, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line maps name -> result."""
    import scenarios

    results = {}
    for name in scenarios.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + ["--toy"] * args.toy, capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def _result(ops: list[Op], extra_failures: int, metrics: dict, units: dict) -> dict:
    failed = sum(1 for op in ops if op.problems) + extra_failures
    attempted = len(ops)
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def timed_run(runner, batch, seen, cli, args, deadline) -> dict:
    import scenarios

    setup = SetupTimer(scenarios.setup_cut(batch[0]))
    setup.sample(0.0, SETUP_FIRST)
    ops = _closed_loop(runner, batch, args.seconds, deadline, seen, setup)
    good = [op for op in ops if not op.problems]
    rusage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup.median(),
        "scenario_s": statistics.median(op.seconds for op in (good or ops)),
        "bus_samples_per_s": sum(op.bus_samples for op in good)
        / sum(op.seconds for op in ops),
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        # 1.0 (no improvement) when no operation was scored
        "worst_rmse_ratio": max((worst_ratio(op.metrics) for op in good), default=1.0),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations")
    _print_metrics(metrics, END_TO_END)
    return _result(ops, 0, metrics, END_TO_END)


def traced_run(runner, batch, seen, cli, args, work, facts) -> dict:
    # each scenario runs untraced, then traced, so that drift in machine
    # speed shows as little as possible in the tracing overhead
    tracer = tracing.Tracer()
    untraced: list[Op] = []
    traced: list[Op] = []
    for i, raw in enumerate(batch):
        untraced.append(_checked(runner, raw, seen, i))
        if cli:
            traced.append(_checked(runner, raw, seen, i, traced=True))
            continue
        tracer.op = i
        tracer.install()
        try:
            traced.append(_checked(runner, raw, seen, i))
        finally:
            tracer.uninstall()
    spans = list(tracer.spans)
    errors = dict(tracer.errors)
    for i, op in enumerate(traced):
        tracing.merge(spans, op.spans, i)
        for layer, n in op.errors.items():
            errors[layer] = errors.get(layer, 0) + n

    replay_failures = 0
    if cli:
        # the command line must score a scenario exactly as the pipeline does
        replay = InProcess()
        for raw, op in zip(batch, traced):
            if op.metrics is None:
                continue
            try:
                expected = json.loads(json.dumps(replay.run(raw).metrics))
            except Exception as exc:  # a failed replay is a failed check
                expected = f"{type(exc).__name__}: {exc}"
            if expected != op.metrics:
                replay_failures += 1
                print("replay: metrics.json differs from the in-process run", file=sys.stderr)

    local_steps = {}
    convergence = []
    for raw in batch:
        key = json.dumps([raw["topology"], raw["estimation"], raw["simulation"]["duration_s"]])
        if key not in local_steps:
            n = int(round(raw["simulation"]["duration_s"] * raw["estimation"]["local_rate_hz"]))
            local_steps[key] = convergence_steps(raw, n)
        convergence.append(local_steps[key])

    base = sum(op.seconds for op in untraced)
    cli_times = {}
    if cli:
        cli_times = {
            key: statistics.fmean(op.commands.get(key, 0.0) for op in traced)
            for key in ("simulate_s", "estimate_s", "report_s")
        }
        cli_times["startup_s"] = statistics.fmean(s for op in traced for s in op.startup)
    metrics = tracing.layer_metrics(
        spans,
        errors,
        len(traced),
        convergence,
        cli_times,
        (sum(op.seconds for op in traced) - base) / base if base else 0.0,
    )
    spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"facts": facts, "metrics": metrics, "spans": spans}))
    print(f"workload {args.workload} seed {args.seed}: traced, spans in {spans_file}")
    _print_metrics(metrics, tracing.PER_LAYER)
    return _result(untraced + traced, replay_failures, metrics, tracing.PER_LAYER)


if __name__ == "__main__":
    if not (SRC / "microdse" / "__init__.py").is_file():
        sys.exit(f"error: the microdse package is not under {SRC}")
    sys.exit(main())
