"""Monotone weighted least squares with incremental updates and CDF-family estimation."""

from importlib import import_module as _import_module

from . import idr, pava, sequential
from .idr import DistributionFamilyEstimate, ObservationSet, fit_family, group
from .pava import (
    BlockFit,
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

# The timing harness and the brute-force oracle, and the names taken from them,
# are imported when first named (PEP 562), so that the command line, which
# needs neither, starts faster.
_LAZY = {
    "bench": "bench",
    "ExperimentConfig": "bench",
    "TimingReport": "bench",
    "generate_dataset": "bench",
    "run_benchmark": "bench",
    "oracle": "oracle",
    "FitCheck": "oracle",
    "check_fit": "oracle",
    "minmax_fit": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = [
    "BlockFit",
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
