"""Simulator of coded distributed gradient descent with partial recovery
and age-based dynamic computation ordering."""

from .ages import AgeTable
from .codec import (OrderPolicy, apply_order, build_rcs, encode, from_shifts,
                    select_adaptive_shift, shift_for_iteration)
from .decoder import RecoveryState, block_mask, recovery_target
from .experiments import (ExperimentConfig, PolicySpec, SweepResult,
                          emit_plotdata, preset_config, run_experiment,
                          table1_grid)
from .latency import (LatencyParams, MarkovStragglerModel, StragglerProfile,
                      completion_cdf, effective_params,
                      sample_completion_times, step_markov, worker_params)
from .problem import ConfigurationError, RegressionProblem, generate_problem
from .trainer import (TrainConfig, TrainResult, apply_partial_update, evaluate,
                      run_plain_gd, run_training, simulate_recovery)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
