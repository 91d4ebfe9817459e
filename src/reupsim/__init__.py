"""Deterministic simulator and experiment harness for single-qubit
data re-uploading classifiers trained with classical optimizers."""

from .backend import IdealBackend, MeasurementLedger, NoiseModel, NoisyBackend, estimate_time
from .circuits import (Ansatz, CircuitSpec, evaluate_circuit, measure_batch,
                       random_parameters)
from .config import ConfigError, ExperimentConfig, save_config
from .costs import CostKind, accuracy, chi_squared, cross_entropy, evaluate
from .data import CircleSpec, Dataset, generate, generate_splits, load, save
from .ga import CrossoverKind, GAConfig, MutationSpec, SelectionKind, ga_train
from .mitigation import (CalibrationMatrix, calibrate, gradient_noise_report, mitigate,
                         mitigate_estimate, noise_scaling, observation_pairs,
                         residual_analysis)
from .seeding import counter_uniforms, derive_key, derive_seed
from .trace import TrainingError, TrainingTrace
from .trainers import (GradConfig, GradMethod, LineSearchSpec, LocalSearchSpec,
                       OptimizerKind, bfgs_train, bfgs_update, estimate_gradient,
                       landscape_scan, sgd_train)

__version__ = "0.1.0"

__all__ = [
    "Ansatz", "CircuitSpec", "evaluate_circuit", "measure_batch", "random_parameters",
    "CircleSpec", "Dataset", "generate", "generate_splits", "load", "save",
    "IdealBackend", "NoisyBackend", "NoiseModel", "MeasurementLedger",
    "estimate_time",
    "CostKind", "accuracy", "cross_entropy", "chi_squared", "evaluate",
    "GAConfig", "MutationSpec", "SelectionKind", "CrossoverKind", "ga_train",
    "GradConfig", "GradMethod", "OptimizerKind", "LineSearchSpec",
    "LocalSearchSpec", "bfgs_train", "bfgs_update", "estimate_gradient",
    "sgd_train", "landscape_scan",
    "CalibrationMatrix", "calibrate", "mitigate", "mitigate_estimate",
    "residual_analysis", "observation_pairs",
    "noise_scaling", "gradient_noise_report",
    "ConfigError", "ExperimentConfig", "save_config",
    "TrainingError", "TrainingTrace",
    "counter_uniforms", "derive_key", "derive_seed",
    "__version__",
]
