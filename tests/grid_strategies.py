"""Hypothesis strategies for random connected grids, shared by the
simulator and end-to-end property tests."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from microdse.models import DguParams, LineParams, MicrogridTopology


@st.composite
def random_grids(draw, min_buses=2, max_buses=6, max_chords=3):
    """Connected grids: a random spanning tree plus optional chords, so
    both radial and meshed grids are drawn."""
    nb = draw(st.integers(min_buses, max_buses))
    pairs = {(draw(st.integers(1, b - 1)), b) for b in range(2, nb + 1)}
    others = [(a, b) for a in range(1, nb + 1) for b in range(a + 1, nb + 1)]
    if others:
        pairs |= set(draw(st.lists(st.sampled_from(others), max_size=max_chords)))
    uniform = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    topology = MicrogridTopology(
        n_buses=nb,
        dgus=tuple(
            DguParams(uniform(0.9e-3, 1.3e-3), uniform(90e-6, 110e-6), uniform(50e-6, 60e-6))
            for _ in range(nb)
        ),
        lines=tuple(
            LineParams(a, b, uniform(0.9, 1.3), uniform(0.44e-3, 0.67e-3))
            for a, b in sorted(pairs)
        ),
        omega=2.0 * math.pi * 60.0,
    )
    loads = np.array([[uniform(150.0, 220.0), uniform(30.0, 40.0)] for _ in range(nb)])
    return topology, loads
