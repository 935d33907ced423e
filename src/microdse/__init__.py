"""Microgrid simulation and decentralized dynamic state estimation in the dq frame.

The package builds rotating-frame LTI models of DGU buses and lines,
simulates the coupled plant with seeded noise and load-step events, and
runs multi-rate Kalman estimators (one per DGU plus a line-current
estimator) whose process noise is corrected for noisy input measurements.
"""

from .config import (
    ConfigError,
    EstimationSettings,
    MetricsSettings,
    ScenarioConfig,
    bundled_config_dict,
    bundled_scenario,
    load_scenario,
    load_scenario_dict,
)
from .discretize import (
    CONDITION_LIMIT,
    DiscreteLtiModel,
    discretize_euler,
    discretize_exact,
    matrix_exponential,
)
from .estimation import (
    EstimateTrace,
    GlobalEstimator,
    LocalEstimator,
    build_global_estimator,
    build_local_estimator,
    global_input_covariance,
    local_posterior_covariance,
    rmse,
    run_global,
    run_local,
    run_locals,
    tracking_recovery_time,
)
from .frames import DqSample, ThreePhaseSample, inverse_park, park
from .kalman import (
    KalmanEstimator,
    NoiseSpec,
    effective_process_noise,
    innovation_consistency,
    steady_state_covariance,
)
from .models import (
    ContinuousLtiModel,
    DguParams,
    LineParams,
    MicrogridTopology,
    build_coupled_plant,
    build_dgu_model,
    build_line_model,
    power_flow,
    steady_state_residual_dgu,
    steady_state_residual_line,
)
from .pipeline import (
    EstimationResult,
    compute_metrics,
    estimate_scenario,
    simulate_scenario,
)
from .sim import (
    EventSchedule,
    LoadStep,
    RegulatorConfig,
    SimConfig,
    SimNoise,
    SimulationDivergedError,
    Trace,
    closed_loop_matrix,
    downsample,
    regulated_equilibrium,
    run_plant,
)

__version__ = "0.1.0"
