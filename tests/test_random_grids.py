"""The paper's claims on random connected grids, not just the three-bus
reference.

Each drawn grid (a random spanning tree plus chords, parameters inside the
README table's ranges) runs the bundled scenario's noise and estimator
settings for 0.5 s with one load step between the two steady windows.
On every such grid whose regulated loop is stable, the local filters
must beat their measurements by better than 2x on every channel in every
window, each bus run alone must equal the batch bit for bit, and the
global filter's input covariance M must be PSD.  The global layer's own
2x claim needs ~75 global samples per window (README) and is not pinned
on these 0.5 s runs, whose windows hold ~15.

Forward Euler's one-step error against the exact ZOH is second order in
the step on each drawn grid's coupled plant.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from grid_strategies import random_grids
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import microdse as m
from microdse import (
    EventSchedule,
    LoadStep,
    MetricsSettings,
    build_coupled_plant,
    closed_loop_matrix,
    discretize_euler,
    discretize_exact,
    global_input_covariance,
    local_posterior_covariance,
    run_locals,
)


def grid_scenario(reference_scenario, topology, loads, seed):
    """The bundled scenario on ``topology``: 0.5 s, a load step on bus 1
    at 0.3 s, windows [0.1, 0.25] and [0.35, 0.5] s."""
    nb = topology.n_buses
    controller = dataclasses.replace(
        reference_scenario.sim.controller, droop=0.1, reference=np.full(nb, 11267.652)
    )
    sim = dataclasses.replace(
        reference_scenario.sim,
        topology=topology,
        duration_s=0.5,
        seed=seed,
        initial_loads=loads,
        events=EventSchedule((LoadStep(0.3, 1, 150.0, 30.0),)),
        controller=controller,
    )
    estimation = dataclasses.replace(
        reference_scenario.estimation,
        metrics=MetricsSettings(windows_s=((0.1, 0.25), (0.35, 0.5))),
    )
    return dataclasses.replace(reference_scenario, sim=sim, estimation=estimation)


@settings(max_examples=8, deadline=None)
@given(grid=random_grids(2, 12, max_chords=6), seed=st.integers(0, 2**31 - 1))
def test_the_local_claims_hold_on_random_grids(reference_scenario, grid, seed):
    topology, loads = grid
    scn = grid_scenario(reference_scenario, topology, loads, seed)
    assume(np.abs(np.linalg.eigvals(closed_loop_matrix(scn.sim))).max() < 1.0)
    result = m.estimate_scenario(scn, m.simulate_scenario(scn))
    metrics = m.compute_metrics(scn, result)
    ratios = [
        w["improvement_ratio"]
        for ch in metrics["channels"].values()
        if ch["kind"] == "local"
        for w in ch["windows"]
    ]
    assert len(ratios) == 2 * 4 * topology.n_buses
    assert max(ratios) <= 0.5
    for est in result.local_estimators:
        alone = run_locals([est], result.local_trace)[est.bus]
        np.testing.assert_array_equal(alone.x_hat, result.local_estimates[est.bus].x_hat)
        np.testing.assert_array_equal(alone.nis, result.local_estimates[est.bus].nis)
    posteriors = {est.bus: local_posterior_covariance(est) for est in result.local_estimators}
    m_global = global_input_covariance(topology, posteriors)
    assert np.linalg.eigvalsh(m_global).min() >= -1e-10 * np.abs(m_global).max()


@settings(max_examples=50, deadline=None)
@given(grid=random_grids(1, 12, max_chords=6))
def test_euler_one_step_error_is_second_order_on_random_grids(grid):
    # at the 1e-4 plant step the ratio reaches ~4.4 on 12-bus grids, so
    # the band is checked at a step where the error is in its asymptote
    model = build_coupled_plant(grid[0])
    h = 1e-5
    errs = [
        np.linalg.norm(discretize_euler(model, t_s).a_d - discretize_exact(model, t_s).a_d, 2)
        for t_s in (h, h / 2)
    ]
    assert 3.6 <= errs[0] / errs[1] <= 4.4
