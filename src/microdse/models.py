"""Continuous-time LTI models of DGU buses, lines, and the coupled microgrid.

Everything lives in one synchronized rotating dq frame.  Conventions used
throughout the package:

* DGU bus states are ordered ``[v_d, v_q, i_td, i_tq]`` with inputs
  ``[v_td, v_tq, i_od, i_oq]`` (terminal voltage and bus output current).
* Line states are ``[i_d, i_q]`` with the current positive from the lower-
  to the higher-numbered bus; the line input is the endpoint voltage
  difference ``v_i - v_j``.
* Bus output current is the local load plus the signed sum of incident
  line currents.

``MicrogridTopology.incidence`` (the signed coupling), ``bus_columns`` and
``MicrogridTopology.line_columns`` (the column layout: four columns per
bus, then two per line) and ``input_record_labels`` are the one home of
this structure; the simulator, the estimators and the metrics read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import DqSample


def _require_positive(name: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")


@dataclass(frozen=True)
class DguParams:
    """RLC filter parameters of one distributed generation unit."""

    r_t: float  # ohm
    l_t: float  # henry
    c_t: float  # farad

    def __post_init__(self):
        _require_positive("r_t", self.r_t)
        _require_positive("l_t", self.l_t)
        _require_positive("c_t", self.c_t)


@dataclass(frozen=True)
class LineParams:
    """Series RL parameters of a line between two buses.

    ``from_bus`` must be the lower-numbered endpoint; positive line current
    flows from ``from_bus`` to ``to_bus``.
    """

    from_bus: int
    to_bus: int
    r: float  # ohm
    l: float  # henry

    def __post_init__(self):
        _require_positive("r", self.r)
        _require_positive("l", self.l)
        if self.from_bus == self.to_bus:
            raise ValueError("line endpoints must differ")
        if self.from_bus < 1 or self.to_bus < 1:
            raise ValueError("bus indices are 1-based")
        if self.from_bus > self.to_bus:
            raise ValueError(
                "from_bus must be the lower-numbered endpoint "
                f"(got {self.from_bus} -> {self.to_bus})"
            )

    @property
    def label(self) -> str:
        return f"{self.from_bus}{self.to_bus}"


@dataclass(frozen=True)
class MicrogridTopology:
    """Buses with one DGU each, connected by RL lines, at a common frequency."""

    n_buses: int
    dgus: tuple[DguParams, ...]
    lines: tuple[LineParams, ...]
    omega: float  # rad/s

    def __post_init__(self):
        object.__setattr__(self, "dgus", tuple(self.dgus))
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.n_buses < 1:
            raise ValueError("need at least one bus")
        if len(self.dgus) != self.n_buses:
            raise ValueError(
                f"expected one DGU per bus ({self.n_buses}), got {len(self.dgus)}"
            )
        if not np.isfinite(self.omega) or self.omega < 0.0:
            raise ValueError("omega must be finite and non-negative")
        seen: set[tuple[int, int]] = set()
        for line in self.lines:
            if line.to_bus > self.n_buses:
                raise ValueError(f"line endpoint {line.to_bus} outside 1..{self.n_buses}")
            key = (line.from_bus, line.to_bus)
            if key in seen:
                raise ValueError(f"duplicate line between buses {key}")
            seen.add(key)
        # every bus must be reachable through the line graph
        reached = {1}
        frontier = [1]
        adj: dict[int, list[int]] = {b: [] for b in range(1, self.n_buses + 1)}
        for line in self.lines:
            adj[line.from_bus].append(line.to_bus)
            adj[line.to_bus].append(line.from_bus)
        while frontier:
            b = frontier.pop()
            for nb in adj[b]:
                if nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        if len(reached) != self.n_buses:
            missing = sorted(set(range(1, self.n_buses + 1)) - reached)
            raise ValueError(f"topology is disconnected; unreachable buses: {missing}")

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def incidence(self) -> np.ndarray:
        """Signed bus-line incidence (n_buses x n_lines): +1 where a line
        leaves its from-bus, -1 where it enters its to-bus."""
        inc = np.zeros((self.n_buses, self.n_lines))
        for j, line in enumerate(self.lines):
            inc[line.from_bus - 1, j] = 1.0
            inc[line.to_bus - 1, j] = -1.0
        return inc

    @property
    def line_columns(self) -> np.ndarray:
        """Plant-state columns of the line currents, [i_d, i_q] per line."""
        return 4 * self.n_buses + np.arange(2 * self.n_lines)


def bus_columns(bus: int | np.ndarray) -> np.ndarray:
    """Columns of a bus's four DGU channels, in the plant state vector and in
    the per-bus DGU input record alike.  An array of buses broadcasts: with
    buses shaped (k, 1) the result holds one row per bus."""
    return 4 * (bus - 1) + np.arange(4)


def bus_records(record: np.ndarray, n_buses: int) -> np.ndarray:
    """The DGU channels of buses 1..``n_buses`` in a state or input record
    (N, ...) as a view (N, n_buses, 4): ``[:, b - 1]`` holds the columns
    ``bus_columns(b)``."""
    return record[:, : 4 * n_buses].reshape(record.shape[0], n_buses, 4)


@dataclass(frozen=True)
class ContinuousLtiModel:
    """Continuous-time pair (A, B) with semantic channel names."""

    a: np.ndarray
    b: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "input_labels", tuple(self.input_labels))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError(f"B rows must match A, got {b.shape} vs {a.shape}")
        if len(self.state_labels) != a.shape[0]:
            raise ValueError("state label count must match state dimension")
        if len(self.input_labels) != b.shape[1]:
            raise ValueError("input label count must match input dimension")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("model matrices must be finite")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """``scipy.linalg.block_diag`` of square blocks, without the per-block
    overhead that dominates it on grids of many buses."""
    n = sum(len(blk) for blk in blocks)
    out = np.zeros((n, n))
    k = 0
    for blk in blocks:
        out[k : k + len(blk), k : k + len(blk)] = blk
        k += len(blk)
    return out


def dgu_state_labels(bus: int | None = None) -> tuple[str, ...]:
    s = "" if bus is None else str(bus)
    return (f"v_d{s}", f"v_q{s}", f"i_td{s}", f"i_tq{s}")


def dgu_input_labels(bus: int | None = None) -> tuple[str, ...]:
    s = "" if bus is None else str(bus)
    return (f"v_td{s}", f"v_tq{s}", f"i_od{s}", f"i_oq{s}")


def input_record_labels(n_buses: int) -> tuple[str, ...]:
    """Labels of the per-bus DGU input record: v_td1, v_tq1, i_od1, i_oq1, ..."""
    return tuple(lab for bus in range(1, n_buses + 1) for lab in dgu_input_labels(bus))


def line_state_labels(line: LineParams) -> tuple[str, ...]:
    return (f"i_d{line.label}", f"i_q{line.label}")


def build_dgu_model(p: DguParams, omega: float, bus: int | None = None) -> ContinuousLtiModel:
    """Four-state model of one DGU bus.

    The voltage states integrate the capacitor current balance and the
    filter-current states integrate the series RL branch, with the usual
    skew omega blocks from the rotating-frame derivative.
    """
    inv_c = 1.0 / p.c_t
    inv_l = 1.0 / p.l_t
    rl = p.r_t / p.l_t
    a = np.array(
        [
            [0.0, omega, inv_c, 0.0],
            [-omega, 0.0, 0.0, inv_c],
            [-inv_l, 0.0, -rl, omega],
            [0.0, -inv_l, -omega, -rl],
        ]
    )
    b = np.array(
        [
            [0.0, 0.0, -inv_c, 0.0],
            [0.0, 0.0, 0.0, -inv_c],
            [inv_l, 0.0, 0.0, 0.0],
            [0.0, inv_l, 0.0, 0.0],
        ]
    )
    return ContinuousLtiModel(a, b, dgu_state_labels(bus), dgu_input_labels(bus))


def build_line_model(p: LineParams, omega: float) -> ContinuousLtiModel:
    """Two-state model of a line; input is the endpoint voltage difference.

    The off-diagonal block is skew (+omega, -omega): expanding the
    rotating-frame line equation into real and imaginary parts forces the
    same rotation pattern as the DGU model.
    """
    rl = p.r / p.l
    inv_l = 1.0 / p.l
    a = np.array([[-rl, omega], [-omega, -rl]])
    b = np.array([[inv_l, 0.0], [0.0, inv_l]])
    labels = line_state_labels(p)
    inputs = (f"v_d{p.label}", f"v_q{p.label}")
    return ContinuousLtiModel(a, b, labels, inputs)


def build_coupled_plant(topology: MicrogridTopology) -> ContinuousLtiModel:
    """Whole-microgrid model stacking all DGU and line states.

    Coupling resolves the shared variables through the signed incidence:
    each line sees the difference of its endpoint bus voltages, and each
    bus output current is the local load plus the signed incident line
    currents.  The free inputs that remain are the per-DGU terminal
    voltages followed by the per-bus load currents (d, q interleaved).
    """
    nb = topology.n_buses
    dgus = [build_dgu_model(p, topology.omega, bus=k + 1) for k, p in enumerate(topology.dgus)]
    lines = [build_line_model(p, topology.omega) for p in topology.lines]
    a = block_diagonal([s.a for s in dgus + lines])
    # each bus's terminal voltage, then its load in place of its output current
    buses = bus_columns(np.arange(1, nb + 1)[:, None])  # one row per bus
    terminal = np.arange(2 * nb).reshape(nb, 2)
    inputs = np.hstack([terminal, 2 * nb + terminal])
    b = np.zeros((a.shape[0], 4 * nb))
    b[buses[:, :, None], inputs[:, None, :]] = [s.b for s in dgus]
    lc = topology.line_columns
    volts = buses[:, :2].ravel()
    inv_l = np.array([1.0 / p.l for p in topology.lines])
    inv_c = np.array([1.0 / p.c_t for p in topology.dgus])
    inc = topology.incidence
    a[np.ix_(lc, volts)] = np.kron(inv_l[:, None] * inc.T, np.eye(2))
    a[np.ix_(volts, lc)] = np.kron(-inv_c[:, None] * inc, np.eye(2))
    state_labels = tuple(lab for s in dgus + lines for lab in s.state_labels)
    input_labels = tuple(
        lab for k in range(1, nb + 1) for lab in (f"v_td{k}", f"v_tq{k}")
    ) + tuple(lab for k in range(1, nb + 1) for lab in (f"i_ld{k}", f"i_lq{k}"))
    return ContinuousLtiModel(a, b, state_labels, input_labels)


def power_flow(v: DqSample, i: DqSample) -> tuple[float, float]:
    """Active/reactive power of a dq voltage/current pair.

    Non-conjugate product convention with the amplitude-invariant 3/2
    factor: P = 3/2 (v_d i_d - v_q i_q), Q = 3/2 (v_d i_q + v_q i_d).
    """
    p = 1.5 * (v.d * i.d - v.q * i.q)
    q = 1.5 * (v.d * i.q + v.q * i.d)
    return p, q


def steady_state_residual_dgu(
    x: np.ndarray, u: np.ndarray, p: DguParams, omega: float
) -> np.ndarray:
    """Residuals of the DGU steady-state relations; zero iff (x, u) is an equilibrium.

    Components: the series-branch voltage balance (d, q) followed by the
    capacitor current balance (d, q).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (4,) or u.shape != (4,):
        raise ValueError("expected 4-state and 4-input vectors")
    v_d, v_q, i_td, i_tq = x
    v_td, v_tq, i_od, i_oq = u
    wl = omega * p.l_t
    wc = omega * p.c_t
    return np.array(
        [
            v_td - v_d - p.r_t * i_td + wl * i_tq,
            v_tq - v_q - p.r_t * i_tq - wl * i_td,
            i_td - i_od + wc * v_q,
            i_tq - i_oq - wc * v_d,
        ]
    )


def steady_state_residual_line(
    i: DqSample, v_i: DqSample, v_j: DqSample, p: LineParams, omega: float
) -> np.ndarray:
    """Residual of the line steady-state relation; zero iff the current balances the voltage drop."""
    wl = omega * p.l
    return np.array(
        [
            (v_i.d - v_j.d) - p.r * i.d + wl * i.q,
            (v_i.q - v_j.q) - p.r * i.q - wl * i.d,
        ]
    )
