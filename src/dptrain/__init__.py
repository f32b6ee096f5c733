"""Differentially private training toolkit.

Per-sample gradients from numpy layer kernels (checked in the test suite
against an autodiff oracle and finite differences), L2 clipping,
calibrated Gaussian noise, Renyi-DP accounting with (epsilon, delta)
conversion, a noisy Adam optimizer, and an experiment harness for
privacy/utility sweeps.
"""

from .accountant import (
    CalibrationError,
    MechanismSpec,
    PrivacyLedger,
    PrivacySpent,
    accountant_query,
    calibrate_sigma,
)
from .config import ConfigError, RunConfig, SweepGrid, parse_config_file
from .data import Dataset, load_csv_dataset, save_csv_dataset, synthetic_dataset
from .mechanisms import ClipSpec, gaussian_noise
from .model import (
    Model,
    accuracy,
    batch_gradient,
    build_mlp,
    load_checkpoint,
    save_checkpoint,
)
from .optim import DpAdamState, StepOutcome, adam_step, dp_adam_step, poisson_subsample
from .train import TrainReport, sweep, train

__version__ = "0.1.0"
