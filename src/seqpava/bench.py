"""Synthetic data generation and a timing harness for the three fit variants."""
from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .idr import VARIANTS, fit_family, group

__all__ = [
    "ExperimentConfig",
    "TimingReport",
    "response_shape",
    "response_scale",
    "sample_responses",
    "generate_dataset",
    "run_benchmark",
]

_X_RANGE = (0.0, 10.0)  # the covariates are uniform on this interval


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one timing experiment."""

    n: int = 1000
    replications: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2 observations per dataset")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def response_shape(x):
    """Gamma shape parameter at covariate x."""
    return np.sqrt(x)


def response_scale(x):
    """Gamma scale parameter at covariate x; stays strictly inside (0, 2)."""
    t = np.asarray(x, dtype=float) - 5.0
    return 1.0 + t / np.sqrt(2.0 + t * t)


def sample_responses(x, rng: np.random.Generator) -> np.ndarray:
    """Draw one gamma response per covariate value in ``x``."""
    return rng.gamma(response_shape(x), response_scale(x))


def generate_dataset(config: ExperimentConfig, replication_index: int) -> np.ndarray:
    """One synthetic dataset as an (n, 2) array of (x, y) rows.

    Deterministic in ``(config.seed, replication_index)``: covariates are
    uniform on [0, 10], responses are gamma with covariate-dependent shape
    and scale.
    """
    if replication_index < 0:
        raise ValueError("replication index must be non-negative")
    rng = np.random.default_rng([config.seed, replication_index])
    x = rng.uniform(*_X_RANGE, config.n)
    y = sample_responses(x, rng)
    return np.column_stack((x, y))


@dataclass(frozen=True)
class TimingReport:
    """Per-variant wall times plus per-replication time ratios.

    Ratios are formed replication by replication and then aggregated, so the
    reported ratio mean is the mean of ratios, not the ratio of means.
    """

    config: ExperimentConfig
    times: dict

    def __post_init__(self) -> None:
        for variant in VARIANTS:
            arr = np.asarray(self.times[variant], dtype=float)
            if arr.size != self.config.replications or not (arr > 0).all():
                raise ValueError(f"invalid timing vector for variant {variant!r}")

    def _arr(self, variant: str) -> np.ndarray:
        return np.asarray(self.times[variant], dtype=float)

    def mean(self, variant: str) -> float:
        return float(self._arr(variant).mean())

    def sd(self, variant: str) -> float:
        arr = self._arr(variant)
        return float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    def median(self, variant: str) -> float:
        return float(np.median(self._arr(variant)))

    def ratios(self, numer: str, denom: str) -> np.ndarray:
        return self._arr(numer) / self._arr(denom)

    def ratio_mean(self, numer: str, denom: str) -> float:
        return float(self.ratios(numer, denom).mean())

    def ratio_sd(self, numer: str, denom: str) -> float:
        arr = self.ratios(numer, denom)
        return float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    def to_dict(self) -> dict:
        pairs = [(a, b) for row, b in enumerate(VARIANTS) for a in VARIANTS[:row]]
        return {
            "config": {
                "n": self.config.n,
                "replications": self.config.replications,
                "seed": self.config.seed,
                "x_range": list(_X_RANGE),
            },
            "times": {v: list(self.times[v]) for v in VARIANTS},
            "stats": {
                v: {"mean": self.mean(v), "sd": self.sd(v), "median": self.median(v)}
                for v in VARIANTS
            },
            "ratios": {
                f"{a}/{b}": {"mean": self.ratio_mean(a, b), "sd": self.ratio_sd(a, b)}
                for a, b in pairs
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        """Aligned text table: one row per variant, ratio columns on the right.

        The row of each variant holds its time ratio to every variant listed
        before it, standard's column first; the other ratio cells are blank.
        """
        header = (
            f"{'variant':<10} {'mean T [s]':>12} {'sd T [s]':>12} "
            f"{'T1/Tj mean':>12} {'T1/Tj sd':>10} {'T2/T3 mean':>12} {'T2/T3 sd':>10}"
        )
        lines = [header]
        for row, variant in enumerate(VARIANTS):
            cells = [f"{variant:<10}", f"{self.mean(variant):>12.6f}", f"{self.sd(variant):>12.6f}"]
            for a in VARIANTS[:row]:
                cells += [f"{self.ratio_mean(a, variant):>12.4f}", f"{self.ratio_sd(a, variant):>10.4f}"]
            cells += [f"{'':>12}", f"{'':>10}"] * (len(VARIANTS) - 1 - row)
            lines.append(" ".join(cells))
        return "\n".join(lines)


def run_benchmark(config: ExperimentConfig) -> TimingReport:
    """Time the three variants on identical datasets.

    One untimed warm-up fit per variant precedes measurement. The timed
    section covers grouping and fitting; data generation is excluded. Every
    recorded CDF value is one division of exact integer sums, so the three
    estimates of a dataset are bit-identical: unless every variant's
    thresholds and CDF equal standard's exactly, it raises RuntimeError and
    reports no timing.
    """
    warm = generate_dataset(config, 0)
    for variant in VARIANTS:
        fit_family(group(warm), variant)

    times: dict = {variant: [] for variant in VARIANTS}
    for r in range(config.replications):
        pairs = generate_dataset(config, r)
        estimates = []
        for variant in VARIANTS:
            start = perf_counter()
            estimates.append(fit_family(group(pairs), variant))
            times[variant].append(perf_counter() - start)
        standard = estimates[0]
        for variant, estimate in zip(VARIANTS[1:], estimates[1:]):
            if not (
                np.array_equal(estimate.thresholds, standard.thresholds)
                and np.array_equal(estimate.cdf, standard.cdf)
            ):
                raise RuntimeError(f"{variant} differs from standard on replication {r}")
    return TimingReport(config, {v: tuple(ts) for v, ts in times.items()})
