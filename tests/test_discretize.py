import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import microdse as m
from microdse import discretize
from microdse import (
    ContinuousLtiModel,
    build_dgu_model,
    build_line_model,
    discretize_euler,
    discretize_exact,
    matrix_exponential,
)
from microdse.models import DguParams, LineParams

OMEGA_60 = 2 * math.pi * 60.0
DGU1 = DguParams(r_t=1.1e-3, l_t=90e-6, c_t=50e-6)


def scalar_model(a, b):
    return ContinuousLtiModel(
        np.array([[a]]), np.array([[b]]), ("x",), ("u",)
    )


def test_euler_zero_dynamics():
    model = ContinuousLtiModel(np.zeros((2, 2)), np.eye(2), ("a", "b"), ("u", "v"))
    disc = discretize_euler(model, 0.1)
    np.testing.assert_array_equal(disc.a_d, np.eye(2))
    np.testing.assert_array_equal(disc.b_d, 0.1 * np.eye(2))
    assert disc.method == "euler"


def test_euler_scalar():
    disc = discretize_euler(scalar_model(-2.0, 0.0), 1e-4)
    assert disc.a_d[0, 0] == pytest.approx(0.9998, rel=1e-15)


def test_euler_dgu_cross_coupling_entry():
    disc = discretize_euler(build_dgu_model(DGU1, OMEGA_60), 1e-4)
    assert disc.a_d[0, 1] == pytest.approx(1e-4 * OMEGA_60, rel=1e-15)
    assert disc.a_d[0, 1] == pytest.approx(0.037699111843077517, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1e-4, math.nan])
def test_nonpositive_step_rejected(bad):
    model = scalar_model(-1.0, 1.0)
    with pytest.raises(ValueError):
        discretize_euler(model, bad)
    with pytest.raises(ValueError):
        discretize_exact(model, bad)


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    out = matrix_exponential(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(out, np.diag([math.e, 1.0 / math.e]), rtol=1e-12)


def test_expm_skew_symmetric_is_rotation():
    theta = 0.7
    out = matrix_exponential(np.array([[0.0, theta], [-theta, 0.0]]))
    expected = np.array(
        [
            [math.cos(theta), math.sin(theta)],
            [-math.sin(theta), math.cos(theta)],
        ]
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_expm_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[math.nan]]))


def test_exact_scalar_closed_form():
    disc = discretize_exact(scalar_model(-2.0, 1.0), 1.0)
    assert disc.a_d[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert disc.b_d[0, 0] == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)


def test_exact_rejects_singular_matrix():
    model = ContinuousLtiModel(np.zeros((2, 2)), np.eye(2), ("a", "b"), ("u", "v"))
    with pytest.raises(np.linalg.LinAlgError, match="euler"):
        discretize_exact(model, 1e-3)


def test_euler_error_is_second_order():
    model = build_dgu_model(DGU1, OMEGA_60)
    # small enough steps that the quadratic Taylor remainder dominates
    errs = []
    for t_s in (1e-5, 5e-6, 2.5e-6):
        e = discretize_euler(model, t_s)
        x = discretize_exact(model, t_s)
        errs.append(np.linalg.norm(e.a_d - x.a_d, 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_semigroup_property():
    model = build_dgu_model(DGU1, OMEGA_60)
    t_s = 1e-4
    a1 = discretize_exact(model, t_s).a_d
    a2 = discretize_exact(model, 2 * t_s).a_d
    np.testing.assert_allclose(a2, a1 @ a1, rtol=1e-10, atol=1e-10)


def test_exact_preserves_stability():
    for model in (
        build_dgu_model(DGU1, OMEGA_60),
        build_line_model(LineParams(1, 2, 1.1, 0.52e-3), OMEGA_60),
    ):
        assert np.real(np.linalg.eigvals(model.a)).max() < 0.0
        disc = discretize_exact(model, 1e-4)
        assert np.abs(np.linalg.eigvals(disc.a_d)).max() < 1.0


def test_methods_agree_on_zero_input_matrix():
    model = ContinuousLtiModel(
        np.array([[-3.0, 1.0], [0.0, -2.0]]), np.zeros((2, 1)), ("a", "b"), ("u",)
    )
    e = discretize_euler(model, 0.01)
    x = discretize_exact(model, 0.01)
    np.testing.assert_array_equal(e.b_d, x.b_d)


def test_labels_carried_through():
    model = build_dgu_model(DGU1, OMEGA_60, bus=2)
    disc = discretize_exact(model, 1e-4)
    assert disc.state_labels == ("v_d2", "v_q2", "i_td2", "i_tq2")
    assert disc.input_labels == ("v_td2", "v_tq2", "i_od2", "i_oq2")


def _load_benchmark_scenarios():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("benchmark_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _relative_gap(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


def test_expm_matches_scipy_on_the_workload_matrices():
    """Every T_s A that the benchmark workloads exponentiate: the plant,
    the local and the global models of the reference grid (``reference_cli``
    and ``montecarlo_short``) and of the 30-bus ``mesh30`` grid."""
    scenarios = _load_benchmark_scenarios()
    workloads = (*scenarios.reference(1), scenarios.montecarlo(1)[0], *scenarios.mesh(1))
    exponents = []
    original = discretize.matrix_exponential

    def recorded(a):
        exponents.append(np.array(a))
        return original(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discretize, "matrix_exponential", recorded)
        for raw in workloads:
            scn = m.load_scenario_dict(scenarios.setup_cut(raw))
            m.estimate_scenario(scn, m.simulate_scenario(scn))
    # a plant, a local model per bus and a global model per workload
    assert len(exponents) == 2 * (1 + 3 + 1) + (1 + 30 + 1)
    for a in exponents:
        assert _relative_gap(matrix_exponential(a), scipy.linalg.expm(a)) <= 1e-12


@pytest.mark.parametrize("norm_over_theta", [0.5, 1.25, 8.0])
def test_expm_matches_scipy_on_random_matrices_around_the_scaling_threshold(norm_over_theta):
    """Random matrices with 1-norms below and above the threshold at which
    the argument is scaled down.  scipy's own error grows with the norm
    (about 1e-13 per unit, against 40-digit arithmetic, where the Pade-13
    result stays within 1e-14), so the bound grows with it above 1.25."""
    rng = np.random.default_rng(17)
    bound = 1e-12 * max(1.0, norm_over_theta / 1.25)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        a *= norm_over_theta * discretize._THETA13 / np.abs(a).sum(axis=0).max()
        assert _relative_gap(matrix_exponential(a), scipy.linalg.expm(a)) <= bound
