"""Gradient-informed temporal sampling for autoregressive PDE surrogates.

Selects a budgeted set of shared temporal start indices for surrogate
training by jointly maximizing pilot-model gradient-norm scores and two
facility-location temporal coverage terms, and ships the baselines,
metrics, and diagnostics needed to evaluate the selection end to end on
synthetic trajectory data.
"""

from .pde_data import SolverConfig, TrajectoryDataset, generate_dataset, read_dataset, write_dataset
from .pilot_scoring import (
    CandidateScores,
    CandidateSet,
    build_candidates,
    train_pilot,
)
from .selector import (
    SAMPLER_TABLE,
    SAMPLERS,
    ObjectiveConfig,
    SelectionResult,
    budget_from_ratio,
    grad_match_from_gradients,
    greedy_select,
    run_sampler,
    sample_uniform,
    top_k,
)
from .surrogate import (
    SurrogateArch,
    SurrogateParams,
    TrainConfig,
    init_params,
    rollout_batch,
    rollout_loss_grad,
    train,
)
from .temporal_coverage import (
    CoverageConfig,
    build_windows,
    coverage_values,
    derive_coverage_config,
    kernel_global,
    kernel_window,
    state_update,
)
from .diagnostics import (
    GeometryReport,
    RolloutReport,
    auxiliary_metrics,
    spearman,
    subset_geometry,
)
from .harness import ExperimentConfig, run_experiment
from .selftest import run_selftest

__version__ = "0.1.0"
