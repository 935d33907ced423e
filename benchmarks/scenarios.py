"""Workload inputs: scenario dicts generated from the benchmark seed.

The package only ever sees the dicts built here (or the JSON they are
written to).  Every workload starts from the bundled reference scenario
so that keys the workloads do not vary keep their documented values.
"""

from __future__ import annotations

import copy
import random

import numpy as np

from microdse import config as mconfig
from microdse.sim import closed_loop_matrix

# Generated grids draw electrical parameters inside the README table's
# ranges, and loads and reference scales inside the bundled scenario's.
DGU_R_OHM = (0.9e-3, 1.3e-3)
DGU_L_HENRY = (90e-6, 110e-6)
DGU_C_FARAD = (50e-6, 60e-6)
LINE_R_OHM = (0.9, 1.3)
LINE_L_HENRY = (0.44e-3, 0.67e-3)
LOAD_D_AMPS = (150.0, 220.0)
LOAD_Q_AMPS = (30.0, 40.0)
REFERENCE_SCALE = (0.996, 1.004)
# At the bundled 0.5 V/A droop, meshes of 10-30 buses are closed-loop
# unstable (spectral radius 1.0007-1.019); 0.1 V/A gives 0.985-0.990.
MESH_DROOP_V_PER_A = 0.1

LOAD_STEP = {"bus": 1, "delta_d_amps": 150.0, "delta_q_amps": 30.0}

MONTECARLO_SEEDS = 24


class UnstableGridError(RuntimeError):
    """A generated grid whose regulated closed loop is not stable."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sim_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _short_run(
    raw: dict,
    duration_s: float,
    event_s: float,
    windows: list[list[float]],
    horizon_s: float | None = None,
) -> dict:
    out = copy.deepcopy(raw)
    sim = out["simulation"]
    sim["duration_s"] = duration_s
    sim["loads"]["events"] = [{"time_s": event_s, **LOAD_STEP}]
    metrics = out["estimation"].setdefault("metrics", {})
    metrics["windows_s"] = windows
    if horizon_s is not None:
        metrics["tracking_horizon_s"] = horizon_s
    return out


def setup_cut(raw: dict) -> dict:
    """The scenario cut to one global-filter period with no events."""
    out = copy.deepcopy(raw)
    out["simulation"]["duration_s"] = 1.0 / out["estimation"]["global_rate_hz"]
    out["simulation"]["loads"]["events"] = []
    return out


def reference(seed: int, toy: bool = False) -> list[dict]:
    """The bundled three-bus scenario with a seeded noise draw."""
    raw = mconfig.bundled_config_dict()
    raw["simulation"]["seed"] = _sim_seed(_rng("reference_cli", seed))
    if toy:
        raw = _short_run(raw, 0.2, 0.1, [[0.03, 0.1], [0.15, 0.2]], 0.05)
    return [raw]


def montecarlo(seed: int, toy: bool = False) -> list[dict]:
    """Short reference-topology runs, one per drawn noise seed."""
    rng = _rng("montecarlo_short", seed)
    base = _short_run(
        mconfig.bundled_config_dict(), 0.2, 0.1, [[0.03, 0.1], [0.15, 0.2]], 0.05
    )
    batch = []
    for _ in range(2 if toy else MONTECARLO_SEEDS):
        raw = copy.deepcopy(base)
        raw["simulation"]["seed"] = _sim_seed(rng)
        batch.append(raw)
    return batch


def mesh(seed: int, toy: bool = False) -> list[dict]:
    """One seeded meshed grid: 30 buses (29 tree lines + 10 chords)."""
    rng = _rng("mesh30", seed)
    if toy:
        raw = generate_grid(rng, n_buses=6, n_chords=2)
        raw = _short_run(raw, 0.2, 0.1, [[0.03, 0.1], [0.15, 0.2]], 0.05)
    else:
        raw = generate_grid(rng, n_buses=30, n_chords=10)
        raw = _short_run(raw, 0.5, 0.25, [[0.1, 0.25], [0.35, 0.5]])
    raw["estimation"]["global_rate_hz"] = 1000.0
    return [raw]


def generate_grid(rng: random.Random, n_buses: int, n_chords: int) -> dict:
    """Random connected grid: a spanning tree plus ``n_chords`` extra lines.

    Parameters are drawn inside the README table's ranges.  Raises
    ``UnstableGridError`` when the regulated closed loop is not stable, so
    a seed never silently maps to a different grid.
    """
    order = list(range(1, n_buses + 1))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n_buses):
        a, b = order[i], order[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    candidates = [
        (a, b)
        for a in range(1, n_buses + 1)
        for b in range(a + 1, n_buses + 1)
        if (a, b) not in pairs
    ]
    pairs.update(rng.sample(candidates, n_chords))

    raw = mconfig.bundled_config_dict()
    raw["name"] = f"mesh-{n_buses}-bus"
    raw["topology"]["dgus"] = [
        {
            "bus": bus,
            "r_ohm": rng.uniform(*DGU_R_OHM),
            "l_henry": rng.uniform(*DGU_L_HENRY),
            "c_farad": rng.uniform(*DGU_C_FARAD),
        }
        for bus in range(1, n_buses + 1)
    ]
    raw["topology"]["lines"] = [
        {
            "from_bus": a,
            "to_bus": b,
            "r_ohm": rng.uniform(*LINE_R_OHM),
            "l_henry": rng.uniform(*LINE_L_HENRY),
        }
        for a, b in sorted(pairs)
    ]
    sim = raw["simulation"]
    sim["seed"] = _sim_seed(rng)
    sim["controller"]["droop_v_per_a"] = MESH_DROOP_V_PER_A
    sim["controller"]["reference_scale"] = [
        rng.uniform(*REFERENCE_SCALE) for _ in range(n_buses)
    ]
    sim["loads"]["initial_amps"] = [
        [rng.uniform(*LOAD_D_AMPS), rng.uniform(*LOAD_Q_AMPS)] for _ in range(n_buses)
    ]

    labels = [f"{a}{b}" for a, b in pairs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"generated line labels collide: {sorted(labels)}")
    rho = spectral_radius(raw)
    if rho >= 1.0:
        raise UnstableGridError(
            f"generated {n_buses}-bus grid is closed-loop unstable "
            f"(spectral radius {rho:.6f})"
        )
    return raw


def spectral_radius(raw: dict) -> float:
    """Spectral radius of the regulated plant's discrete closed loop."""
    sim = mconfig.load_scenario_dict(raw).sim
    return float(np.abs(np.linalg.eigvals(closed_loop_matrix(sim))).max())


WORKLOADS = {
    "reference_cli": reference,
    "montecarlo_short": montecarlo,
    "mesh30": mesh,
}
