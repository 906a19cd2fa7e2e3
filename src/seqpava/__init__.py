"""Monotone weighted least squares with incremental updates and CDF-family estimation."""

from . import bench, idr, oracle, pava, sequential
from .bench import ExperimentConfig, TimingReport, generate_dataset, run_benchmark
from .idr import DistributionFamilyEstimate, ObservationSet, fit_family, group
from .oracle import FitCheck, check_fit, minmax_fit
from .pava import (
    BlockFit,
    BlockPartition,
    FittedBlocks,
    WeightedSeries,
    expand,
    fit_modified,
    fit_standard,
    isotonic_fit,
    iter_prefix_fits,
    weighted_mean,
)
from .sequential import SequentialState, update_any, update_increase

__version__ = "0.1.0"

__all__ = [
    "BlockFit",
    "BlockPartition",
    "DistributionFamilyEstimate",
    "ExperimentConfig",
    "FitCheck",
    "FittedBlocks",
    "ObservationSet",
    "SequentialState",
    "TimingReport",
    "WeightedSeries",
    "bench",
    "check_fit",
    "expand",
    "fit_family",
    "fit_modified",
    "fit_standard",
    "generate_dataset",
    "group",
    "idr",
    "isotonic_fit",
    "iter_prefix_fits",
    "minmax_fit",
    "oracle",
    "pava",
    "run_benchmark",
    "sequential",
    "update_any",
    "update_increase",
    "weighted_mean",
]
