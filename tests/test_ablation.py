"""The paper's input-noise correction, reproduced as an ablation.

Each filter's process noise is corrected for the noise of its measured
inputs: Q_eff = B_d M B_d^T + Q (``effective_process_noise``).  Swapping
that one function, in both estimator layers at once, for Q alone (the
inputs taken as exact) or for B_d (10 M) B_d^T + Q (the inputs taken as
ten times noisier than they are) must cost accuracy: the paper's form
gives the lower worst RMSE ratio in each layer than Q alone.  Each
mis-specification also moves every filter's mean NIS away from its
dimension in its own direction: above it when the filter trusts its
inputs too much, below it when it trusts them too little.

The ``kalman`` caches key on matrix content, so a swapped Q_eff never
meets a schedule of another.  Run as a script,
``PYTHONPATH=src python tests/test_ablation.py``, this prints the table
that README quotes.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from test_estimation import generated_mesh

import microdse as m
from microdse import EventSchedule, LoadStep, MetricsSettings, estimation

PAPER = estimation.effective_process_noise
Q_EFF = {
    "paper": PAPER,
    "q_alone": lambda q, b_d, cov: PAPER(q, b_d, np.zeros_like(cov)),
    "m_times_10": lambda q, b_d, cov: PAPER(q, b_d, 10.0 * np.asarray(cov)),
}
REFERENCE_SEEDS = (m.bundled_config_dict()["simulation"]["seed"], 1, 2, 3, 4)
MESH_SEED = 11


def reference(seed: int):
    """The bundled 4 s three-bus scenario at noise seed ``seed``."""
    return m.bundled_scenario({"seed": seed})


def mesh():
    """A seeded 10-bus mesh (13 lines), 2 s with a load step at 1 s: two
    0.75 s windows of 75 global samples each at the bundled 100 Hz."""
    scn = generated_mesh(MESH_SEED)
    sim = dataclasses.replace(
        scn.sim, duration_s=2.0, events=EventSchedule((LoadStep(1.0, 1, 150.0, 30.0),))
    )
    metrics = MetricsSettings(windows_s=((0.25, 1.0), (1.25, 2.0)))
    est = dataclasses.replace(scn.estimation, metrics=metrics)
    return dataclasses.replace(scn, sim=sim, estimation=est)


def ablation(scn) -> dict[str, dict]:
    """Per Q_eff: the worst RMSE ratio of each layer and the mean NIS and
    dimension of each filter, on one simulated record of ``scn``."""
    trace = m.simulate_scenario(scn)
    out = {}
    for name, q_eff in Q_EFF.items():
        with mock.patch.object(estimation, "effective_process_noise", q_eff):
            metrics = m.compute_metrics(scn, m.estimate_scenario(scn, trace))
        worst = {
            kind: max(
                w["improvement_ratio"]
                for ch in metrics["channels"].values()
                if ch["kind"] == kind
                for w in ch["windows"]
            )
            for kind in ("local", "global")
        }
        out[name] = {
            "worst": worst,
            "nis": {f: (e["mean_nis"], e["dim"]) for f, e in metrics["innovation"].items()},
        }
    return out


def check(table: dict[str, dict]) -> None:
    paper, q_alone, inflated = table["paper"], table["q_alone"], table["m_times_10"]
    for kind in ("local", "global"):
        assert paper["worst"][kind] < q_alone["worst"][kind], kind
    for name, (nis, dim) in q_alone["nis"].items():
        assert nis > dim, name
    for name, (nis, dim) in inflated["nis"].items():
        assert nis < dim, name


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_the_paper_q_eff_beats_q_alone_on_the_reference_grid(seed):
    check(ablation(reference(seed)))


def test_the_paper_q_eff_beats_q_alone_on_a_generated_mesh():
    check(ablation(mesh()))


def _row(label: str, name: str, entry: dict) -> str:
    local = [nis for f, (nis, _) in entry["nis"].items() if f != "global"]
    return (
        f"| {label} | {name} | {entry['worst']['local']:.3f} | {entry['worst']['global']:.3f} "
        f"| {min(local):.2f}–{max(local):.2f} | {entry['nis']['global'][0]:.2f} |"
    )


if __name__ == "__main__":
    print("| Run | Q_eff | Worst local ratio | Worst global ratio "
          "| Mean NIS, local | Mean NIS, global |")
    print("|---|---|---|---|---|---|")
    runs = [(f"reference, seed {s}", reference(s)) for s in REFERENCE_SEEDS]
    runs.append((f"10-bus mesh {MESH_SEED}", mesh()))
    for label, scn in runs:
        for name, entry in ablation(scn).items():
            print(_row(label, name, entry))
