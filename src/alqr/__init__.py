"""Adaptive LQR with circuit breaking: simulation, regret, and diagnostics."""

from .control_math import (
    CostWeights,
    RiccatiSolution,
    SystemMatrices,
    controllability_rank,
    solve_dare,
    spectral_radius,
    stability_margin,
)
from .errors import (
    AlqrError,
    ConfigInvalid,
    EmptyWindow,
    GenerationFailed,
    IllConditioned,
    IncompleteLog,
    IoError,
    NonConvergence,
    UnstableMatrix,
)
from .plant import (
    NoiseStream,
    PlantSpec,
    plant_spec_to_dict,
)
from .estimator import EstimatorState, ParameterEstimate, estimation_error
from .controller import AdaptiveController, ControllerConfig, InputBreakdown
from .records import TrialRecord, load_trial_csv, save_trial_csv
from .regret import DecompositionReport, decompose_at, stage_costs
from .diagnostics import (
    SlopeEstimate,
    compute_trial_diagnostics,
    detect_t_nocb,
    detect_t_stab,
    fit_regret_slope,
    noise_bound,
    tnocb_histogram,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    TrialResult,
    TrialSummary,
    checkpoint_steps,
    generate_stand_in_plant,
    run_experiment,
    run_trial,
    trial_seed,
)
from .config import apply_overrides, load_config_file, parse_config_document

__version__ = "0.1.0"
