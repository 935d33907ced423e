"""Per-line reference builds of the grid's coupling.

Each function writes the coupling one line at a time, the way the package
did before the signed incidence and the column layout moved into
``microdse.models``.  They are the oracles for ``build_coupled_plant``,
``sim._output_current_map`` and ``estimation.global_input_covariance``,
which must equal them bit for bit.
"""

from __future__ import annotations

import numpy as np

from microdse.models import ContinuousLtiModel, build_dgu_model, build_line_model


def coupled_plant_loop(topology) -> ContinuousLtiModel:
    nb = topology.n_buses
    nl = topology.n_lines
    n = 4 * nb + 2 * nl
    m = 4 * nb
    a = np.zeros((n, n))
    b = np.zeros((n, m))
    state_labels: list[str] = []
    input_labels: list[str] = []

    for k, dgu in enumerate(topology.dgus):
        sub = build_dgu_model(dgu, topology.omega, bus=k + 1)
        r0 = 4 * k
        a[r0 : r0 + 4, r0 : r0 + 4] = sub.a
        b[r0 : r0 + 4, 2 * k : 2 * k + 2] = sub.b[:, 0:2]
        b[r0 : r0 + 4, 2 * nb + 2 * k : 2 * nb + 2 * k + 2] = sub.b[:, 2:4]
        state_labels.extend(sub.state_labels)
    input_labels.extend(lab for k in range(nb) for lab in (f"v_td{k + 1}", f"v_tq{k + 1}"))
    input_labels.extend(lab for k in range(nb) for lab in (f"i_ld{k + 1}", f"i_lq{k + 1}"))

    for j, line in enumerate(topology.lines):
        sub = build_line_model(line, topology.omega)
        c0 = 4 * nb + 2 * j
        a[c0 : c0 + 2, c0 : c0 + 2] = sub.a
        fi = line.from_bus - 1
        ti = line.to_bus - 1
        inv_l = 1.0 / line.l
        # line driven by v_from - v_to
        a[c0, 4 * fi] += inv_l
        a[c0, 4 * ti] -= inv_l
        a[c0 + 1, 4 * fi + 1] += inv_l
        a[c0 + 1, 4 * ti + 1] -= inv_l
        # line current leaves the from-bus capacitor and enters the to-bus one
        inv_cf = 1.0 / topology.dgus[fi].c_t
        inv_ct = 1.0 / topology.dgus[ti].c_t
        a[4 * fi, c0] -= inv_cf
        a[4 * fi + 1, c0 + 1] -= inv_cf
        a[4 * ti, c0] += inv_ct
        a[4 * ti + 1, c0 + 1] += inv_ct
        state_labels.extend(sub.state_labels)

    return ContinuousLtiModel(a, b, tuple(state_labels), tuple(input_labels))


def output_current_map_loop(topology) -> np.ndarray:
    nb, nl = topology.n_buses, topology.n_lines
    io = np.zeros((2 * nb, 4 * nb + 2 * nl))
    for j, line in enumerate(topology.lines):
        col = 4 * nb + 2 * j
        for bus, sign in ((line.from_bus, 1.0), (line.to_bus, -1.0)):
            io[2 * (bus - 1), col] = sign
            io[2 * (bus - 1) + 1, col + 1] = sign
    return io


def global_input_covariance_loop(topology, local_posteriors) -> np.ndarray:
    nb, nl = topology.n_buses, topology.n_lines
    g = np.zeros((2 * nl, 2 * nb))
    for j, line in enumerate(topology.lines):
        fi, ti = line.from_bus - 1, line.to_bus - 1
        g[2 * j : 2 * j + 2, 2 * fi : 2 * fi + 2] = np.eye(2)
        g[2 * j : 2 * j + 2, 2 * ti : 2 * ti + 2] = -np.eye(2)
    p_v = np.zeros((2 * nb, 2 * nb))
    for b in range(1, nb + 1):
        p_v[2 * (b - 1) : 2 * b, 2 * (b - 1) : 2 * b] = np.asarray(local_posteriors[b])[:2, :2]
    m = g @ p_v @ g.T
    return 0.5 * (m + m.T)
