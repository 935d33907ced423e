"""Microgrid simulation and decentralized dynamic state estimation in the dq frame.

The package builds rotating-frame LTI models of DGU buses and lines,
simulates the coupled plant with seeded noise and load-step events, and
runs multi-rate Kalman estimators (one per DGU plus a line-current
estimator) whose process noise is corrected for noisy input measurements.

Each name below, and each of these submodules, is imported on first
access, so that a command which needs no numpy does not load it.
"""

import importlib

_EXPORTS = {
    "config": (
        "ConfigError",
        "EstimationSettings",
        "MetricsSettings",
        "ScenarioConfig",
        "bundled_config_dict",
        "bundled_scenario",
        "load_scenario",
        "load_scenario_dict",
    ),
    "discretize": (
        "CONDITION_LIMIT",
        "DiscreteLtiModel",
        "discretize_euler",
        "discretize_exact",
        "matrix_exponential",
    ),
    "estimation": (
        "EstimateTrace",
        "GlobalEstimator",
        "LocalEstimator",
        "build_global_estimator",
        "build_local_estimator",
        "global_input_covariance",
        "local_posterior_covariance",
        "rmse",
        "run_global",
        "run_local",
        "run_locals",
        "tracking_recovery_time",
    ),
    "kalman": (
        "KalmanEstimator",
        "NoiseSpec",
        "effective_process_noise",
        "steady_state_covariance",
    ),
    "models": (
        "ContinuousLtiModel",
        "DguParams",
        "LineParams",
        "MicrogridTopology",
        "build_coupled_plant",
        "build_dgu_model",
        "build_line_model",
    ),
    "pipeline": (
        "EstimationResult",
        "compute_metrics",
        "estimate_scenario",
        "simulate_scenario",
    ),
    "sim": (
        "EventSchedule",
        "LoadStep",
        "RegulatorConfig",
        "SimConfig",
        "SimNoise",
        "SimulationDivergedError",
        "Trace",
        "closed_loop_matrix",
        "downsample",
        "run_plant",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
