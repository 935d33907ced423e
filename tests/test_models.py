import math

import numpy as np
import pytest
from sim_oracle import steady_state_residual_dgu, steady_state_residual_line

from microdse import (
    DguParams,
    LineParams,
    MicrogridTopology,
    build_coupled_plant,
    build_dgu_model,
    build_line_model,
    discretize_exact,
)

OMEGA_60 = 2 * math.pi * 60.0

DGU1 = DguParams(r_t=1.1e-3, l_t=90e-6, c_t=50e-6)
LINE12 = LineParams(from_bus=1, to_bus=2, r=1.1, l=0.52e-3)


def three_bus_topology():
    return MicrogridTopology(
        n_buses=3,
        dgus=(
            DGU1,
            DguParams(r_t=1.3e-3, l_t=100e-6, c_t=55e-6),
            DguParams(r_t=0.9e-3, l_t=110e-6, c_t=60e-6),
        ),
        lines=(
            LINE12,
            LineParams(from_bus=1, to_bus=3, r=0.9, l=0.44e-3),
            LineParams(from_bus=2, to_bus=3, r=1.3, l=0.67e-3),
        ),
        omega=OMEGA_60,
    )


@pytest.mark.parametrize("field", ["r_t", "l_t", "c_t"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_dgu_params_must_be_positive(field, bad):
    kwargs = {"r_t": 1e-3, "l_t": 1e-4, "c_t": 1e-5, field: bad}
    with pytest.raises(ValueError):
        DguParams(**kwargs)


def test_dgu_matrix_matches_hand_substitution():
    model = build_dgu_model(DGU1, OMEGA_60)
    inv_c = 1.0 / 50e-6
    inv_l = 1.0 / 90e-6
    rl = 1.1e-3 / 90e-6
    assert model.a[0][2] == pytest.approx(20000.0, rel=1e-15)
    assert model.a[2][2] == pytest.approx(-12.222222222222221, rel=1e-12)
    assert model.a[0][1] == pytest.approx(376.99111843077515, rel=1e-12)
    expected_a = np.array(
        [
            [0.0, OMEGA_60, inv_c, 0.0],
            [-OMEGA_60, 0.0, 0.0, inv_c],
            [-inv_l, 0.0, -rl, OMEGA_60],
            [0.0, -inv_l, -OMEGA_60, -rl],
        ]
    )
    np.testing.assert_array_equal(model.a, expected_a)
    expected_b = np.array(
        [
            [0.0, 0.0, -inv_c, 0.0],
            [0.0, 0.0, 0.0, -inv_c],
            [inv_l, 0.0, 0.0, 0.0],
            [0.0, inv_l, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(model.b, expected_b)


def test_dgu_filter_current_input_row():
    model = build_dgu_model(DGU1, OMEGA_60)
    assert model.b[2][0] == pytest.approx(1.0 / 90e-6, rel=1e-15)
    assert model.input_labels[0] == "v_td"


def test_dgu_zero_frequency_decouples_axes():
    model = build_dgu_model(DGU1, 0.0)
    d_idx = [0, 2]
    q_idx = [1, 3]
    assert not model.a[np.ix_(d_idx, q_idx)].any()
    assert not model.a[np.ix_(q_idx, d_idx)].any()


def test_line_matrix_matches_hand_substitution():
    model = build_line_model(LINE12, OMEGA_60)
    assert model.a[0][0] == pytest.approx(-2115.3846153846152, rel=1e-12)
    assert model.b[0][0] == pytest.approx(1923.0769230769229, rel=1e-12)
    np.testing.assert_array_equal(model.b, np.eye(2) / 0.52e-3)


@pytest.mark.parametrize("r,l", [(1.1, 0.52e-3), (0.2, 1e-4), (5.0, 2e-3)])
def test_line_off_diagonal_is_skew(r, l):
    model = build_line_model(LineParams(1, 2, r, l), OMEGA_60)
    assert model.a[0][1] == OMEGA_60
    assert model.a[1][0] == -OMEGA_60


def test_line_zero_frequency():
    model = build_line_model(LINE12, 0.0)
    np.testing.assert_array_equal(model.a, -(1.1 / 0.52e-3) * np.eye(2))


def test_line_params_validation():
    with pytest.raises(ValueError):
        LineParams(2, 2, 1.0, 1e-3)
    with pytest.raises(ValueError):
        LineParams(3, 1, 1.0, 1e-3)  # must run low -> high
    with pytest.raises(ValueError):
        LineParams(1, 2, -1.0, 1e-3)
    with pytest.raises(ValueError):
        LineParams(1, 2, 1.0, 0.0)


def test_lines_whose_labels_collide_are_refused():
    # on a connected 112-bus ring, lines 1-112 and 11-12 would both be
    # labelled 1112, so the plant's state labels and the trace columns
    # would hold i_d1112 twice
    ring = [(1, 112)] + [(b, b + 1) for b in range(1, 112)]
    with pytest.raises(
        ValueError, match=r"^lines between buses \(1, 112\) and \(11, 12\) share the label '1112'$"
    ):
        MicrogridTopology(
            n_buses=112,
            dgus=(DGU1,) * 112,
            lines=tuple(LineParams(a, b, 1.0, 1e-3) for a, b in ring),
            omega=OMEGA_60,
        )


def test_topology_validation():
    dgus = (DGU1, DGU1)
    with pytest.raises(ValueError, match="disconnected"):
        MicrogridTopology(n_buses=2, dgus=dgus, lines=(), omega=OMEGA_60)
    with pytest.raises(ValueError, match="duplicate"):
        MicrogridTopology(
            n_buses=2,
            dgus=dgus,
            lines=(LineParams(1, 2, 1.0, 1e-3), LineParams(1, 2, 2.0, 1e-3)),
            omega=OMEGA_60,
        )
    with pytest.raises(ValueError, match="outside"):
        MicrogridTopology(
            n_buses=2, dgus=dgus, lines=(LineParams(1, 3, 1.0, 1e-3),), omega=OMEGA_60
        )
    # a single isolated bus is trivially connected
    MicrogridTopology(n_buses=1, dgus=(DGU1,), lines=(), omega=OMEGA_60)


def test_coupled_plant_dimensions_and_labels():
    model = build_coupled_plant(three_bus_topology())
    assert model.n_states == 18
    assert model.n_inputs == 12
    assert model.state_labels[0] == "v_d1"
    assert model.state_labels[12] == "i_d12"
    assert model.input_labels[0] == "v_td1"
    assert model.input_labels[6] == "i_ld1"


def test_coupled_plant_line_coupling_signs():
    topo = three_bus_topology()
    model = build_coupled_plant(topo)
    # line (1,2) d-current leaves bus 1 and enters bus 2
    assert model.a[0, 12] == pytest.approx(-1.0 / 50e-6)
    assert model.a[4, 12] == pytest.approx(+1.0 / 55e-6)
    assert model.a[1, 13] == pytest.approx(-1.0 / 50e-6)
    # line (1,2) is driven by v_1 - v_2
    assert model.a[12, 0] == pytest.approx(+1.0 / 0.52e-3)
    assert model.a[12, 4] == pytest.approx(-1.0 / 0.52e-3)
    # load current enters its own bus like any other outflow
    assert model.b[0, 6] == pytest.approx(-1.0 / 50e-6)


def test_coupled_single_bus_equals_dgu_model():
    topo = MicrogridTopology(n_buses=1, dgus=(DGU1,), lines=(), omega=OMEGA_60)
    coupled = build_coupled_plant(topo)
    single = build_dgu_model(DGU1, OMEGA_60, bus=1)
    np.testing.assert_array_equal(coupled.a, single.a)
    np.testing.assert_array_equal(coupled.b, single.b)


def test_coupled_plant_decouples_with_huge_line_resistance():
    # lines made almost open-circuit: per-DGU trajectories must match the
    # isolated DGU models
    topo = three_bus_topology()
    weak = MicrogridTopology(
        n_buses=3,
        dgus=topo.dgus,
        lines=tuple(
            LineParams(ln.from_bus, ln.to_bus, 1e10, 1e4) for ln in topo.lines
        ),
        omega=OMEGA_60,
    )
    dt = 1e-4
    coupled = discretize_exact(build_coupled_plant(weak), dt)
    u = np.zeros(12)
    u[0:6:2] = [500.0, 400.0, 300.0]  # terminal d voltages, zero loads
    x = np.zeros(18)
    xs = [np.zeros(4) for _ in range(3)]
    singles = [
        discretize_exact(build_dgu_model(d, OMEGA_60), dt) for d in topo.dgus
    ]
    u_single = [np.array([u[2 * k], 0.0, 0.0, 0.0]) for k in range(3)]
    for _ in range(5000):
        x = coupled.a_d @ x + coupled.b_d @ u
        xs = [s.a_d @ xk + s.b_d @ uk for s, xk, uk in zip(singles, xs, u_single)]
    scale = max(np.abs(x).max(), 1.0)
    for k in range(3):
        assert np.abs(x[4 * k : 4 * k + 4] - xs[k]).max() / scale < 1e-6


def test_dgu_residual_zero_at_origin():
    res = steady_state_residual_dgu(np.zeros(4), np.zeros(4), DGU1, OMEGA_60)
    np.testing.assert_array_equal(res, np.zeros(4))


def test_dgu_residual_vanishes_at_solved_equilibrium():
    model = build_dgu_model(DGU1, OMEGA_60)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.uniform(-1e3, 1e3, size=4)
        x_star = np.linalg.solve(model.a, -(model.b @ u))
        res = steady_state_residual_dgu(x_star, u, DGU1, OMEGA_60)
        assert np.abs(res).max() < 1e-9


def test_dgu_residual_linear_in_voltage_perturbation():
    model = build_dgu_model(DGU1, OMEGA_60)
    u = np.array([400.0, 30.0, 120.0, -20.0])
    x_star = np.linalg.solve(model.a, -(model.b @ u))
    eps = 0.25
    perturbed = x_star.copy()
    perturbed[0] += eps
    res = steady_state_residual_dgu(perturbed, u, DGU1, OMEGA_60)
    assert res[0] == pytest.approx(-eps, rel=1e-9)
    assert res[3] == pytest.approx(-OMEGA_60 * 50e-6 * eps, rel=1e-6, abs=1e-9)


def test_line_residual_zero_and_equilibrium():
    zero = np.zeros(2)
    res = steady_state_residual_line(zero, zero, zero, LINE12, OMEGA_60)
    np.testing.assert_array_equal(res, np.zeros(2))
    v_i, v_j = np.array([11000.0, 140.0]), np.array([10950.0, 130.0])
    wl = OMEGA_60 * LINE12.l
    z = np.array([[LINE12.r, -wl], [wl, LINE12.r]])
    i_sol = np.linalg.solve(z, v_i - v_j)
    res = steady_state_residual_line(i_sol, v_i, v_j, LINE12, OMEGA_60)
    assert np.abs(res).max() < 1e-9


def test_line_residual_is_affine():
    v_i, v_j = np.array([20.0, -4.0]), np.array([12.0, 3.0])
    i = np.array([5.0, 1.0])
    r1 = steady_state_residual_line(i, v_i, v_j, LINE12, OMEGA_60)
    r2 = steady_state_residual_line(2 * i, 2 * v_i, 2 * v_j, LINE12, OMEGA_60)
    np.testing.assert_allclose(r2, 2 * r1, rtol=1e-12)
