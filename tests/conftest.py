import time

import pytest

import microdse as m


@pytest.fixture(scope="session")
def reference_scenario():
    return m.bundled_scenario()


@pytest.fixture(scope="session")
def reference_topology(reference_scenario):
    return reference_scenario.sim.topology


@pytest.fixture(scope="session")
def scenario_run(reference_scenario):
    """One full run of the bundled reference scenario, shared by the tests
    that score it.  Timed for the runtime acceptance bound."""
    t0 = time.perf_counter()
    trace = m.simulate_scenario(reference_scenario)
    t1 = time.perf_counter()
    result = m.estimate_scenario(reference_scenario, trace)
    t2 = time.perf_counter()
    metrics = m.compute_metrics(reference_scenario, result)
    return {
        "scenario": reference_scenario,
        "trace": trace,
        "result": result,
        "metrics": metrics,
        "simulate_s": t1 - t0,
        "estimate_s": t2 - t1,
        "elapsed_s": t2 - t0,
    }
