"""Estimation of a family of conditional CDFs ordered by a covariate.

Given observations ``(x_i, y_i)``, the goal is an estimate of the
conditional distribution function at every unique covariate, constrained so
that larger covariates give stochastically larger responses. Sweeping the
sorted responses from below, the per-group indicator averages
``z_j(y) = mean of 1[y_i <= y] within group j`` change in exactly one
component per step, and the non-increasing least-squares fit of that vector
is the column of CDF estimates at threshold ``y``. The "abridged" variant
carries the fit across steps with incremental updates; "standard" and
"modified" refit from scratch at every step with the corresponding batch
solver. Recorded columns are computed from exact integer sums over the
fitted blocks, so all three give bit-identical estimates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pava import BlockFit, WeightedSeries

__all__ = ["VARIANTS", "ObservationSet", "DistributionFamilyEstimate", "group", "fit_family"]

VARIANTS = ("standard", "modified", "abridged")


@dataclass(frozen=True)
class ObservationSet:
    """Covariate/response pairs with the derived grouping by unique covariate.

    Built via :func:`group`; ``weights[j]`` counts the observations sharing
    ``covariates[j]`` and ``group_index[i]`` maps observation ``i`` to its
    covariate group.
    """

    x: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    weights: np.ndarray
    group_index: np.ndarray

    def __post_init__(self) -> None:
        if self.x.size == 0:
            raise ValueError("need at least one observation")
        if self.y.size != self.x.size or self.group_index.size != self.x.size:
            raise ValueError("observation fields must have equal length")
        if not (np.diff(self.covariates) > 0).all():
            raise ValueError("covariates must be strictly increasing")
        if int(self.weights.sum()) != self.x.size:
            raise ValueError("group weights must sum to the number of observations")
        if (self.covariates[self.group_index] != self.x).any():
            raise ValueError("group index does not map observations to their covariates")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.covariates.size


def group(pairs) -> ObservationSet:
    """Build an :class:`ObservationSet` from (covariate, response) rows.

    Accepts any array-like of shape (n, 2). Covariates are deduplicated and
    sorted; each unique covariate's weight is its multiplicity.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one observation")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected rows of (x, y), got array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("observations must be finite")
    x = arr[:, 0].copy()
    y = arr[:, 1].copy()
    covariates, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return ObservationSet(x, y, covariates, counts.astype(float), inverse.astype(np.int64))


@dataclass(frozen=True)
class DistributionFamilyEstimate:
    """Estimated CDF values on a grid: one row per covariate, one column per threshold.

    ``cdf[j, t]`` estimates the probability of a response ``<= thresholds[t]``
    at ``covariates[j]``. Every entry lies in [0, 1], each row is
    non-decreasing (a CDF evaluated at increasing thresholds), each column is
    non-increasing (stochastic ordering in the covariate), and the last
    column is all 1. Those numeric invariants are checked by
    :meth:`validate`; construction checks shapes only.
    """

    covariates: np.ndarray
    thresholds: np.ndarray
    cdf: np.ndarray

    def __post_init__(self) -> None:
        cdf = np.asarray(self.cdf, dtype=float)
        thresholds = np.asarray(self.thresholds, dtype=float)
        covariates = np.asarray(self.covariates, dtype=float)
        if cdf.ndim != 2 or cdf.shape != (covariates.size, thresholds.size):
            raise ValueError(
                f"cdf must have shape ({covariates.size}, {thresholds.size}), got {cdf.shape}"
            )
        if thresholds.size == 0:
            raise ValueError("need at least one threshold")
        if not (np.diff(thresholds) > 0).all():
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "covariates", covariates)

    @property
    def m(self) -> int:
        return self.covariates.size

    @property
    def k(self) -> int:
        return self.thresholds.size

    def validate(self) -> None:
        """Check the numeric invariants, raising ValueError on the first failure."""
        cdf = self.cdf
        if (cdf < 0.0).any() or (cdf > 1.0).any():
            raise ValueError("cdf entries must lie in [0, 1]")
        if (cdf[:, -1] != 1.0).any():
            raise ValueError("last column must be exactly 1")
        if (np.diff(cdf, axis=1) < 0.0).any():
            raise ValueError("rows must be non-decreasing in the threshold")
        if (np.diff(cdf, axis=0) > 0.0).any():
            raise ValueError("columns must be non-increasing in the covariate")

    def cdf_at(self, j: int, y: float) -> float:
        """CDF estimate at covariate index ``j`` (1-based) and threshold ``y``.

        Right-continuous step evaluation: 0 below the first threshold,
        otherwise the column of the largest threshold ``<= y``.
        """
        if not 1 <= j <= self.m:
            raise IndexError(f"covariate index must be in 1..{self.m}, got {j}")
        t = int(np.searchsorted(self.thresholds, y, side="right")) - 1
        if t < 0:
            return 0.0
        return float(self.cdf[j - 1, t])

    def quantile(self, j: int, beta: float) -> float:
        """Smallest threshold where the CDF estimate at covariate ``j`` reaches ``beta``."""
        if not 1 <= j <= self.m:
            raise IndexError(f"covariate index must be in 1..{self.m}, got {j}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must satisfy 0 < beta <= 1, got {beta}")
        row = self.cdf[j - 1]
        # argmax rather than searchsorted: robust even if a row wiggles at ulp level
        return float(self.thresholds[int(np.argmax(row >= beta))])


def fit_family(obs: ObservationSet, variant: str = "abridged") -> DistributionFamilyEstimate:
    """Estimate the CDF family by sweeping the sorted responses.

    Observations are sorted by response, ties broken by covariate group; the
    recorded estimate at a tied response is the fit after the last tied
    update, so the exposed columns do not depend on the tie order.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    m = obs.m
    n = obs.n
    w = obs.weights
    w_list = w.tolist()

    order = np.lexsort((obs.group_index, obs.y))
    groups = obs.group_index[order].tolist()
    y_sorted = obs.y[order]
    record = np.empty(n, dtype=bool)
    record[-1] = True
    if n > 1:
        record[:-1] = y_sorted[1:] != y_sorted[:-1]
    thresholds = y_sorted[record].copy()
    record = record.tolist()

    fit = BlockFit(WeightedSeries(np.zeros(m), w))
    z = fit.z
    if variant == "abridged":
        update = fit.set
    else:
        by_runs = variant == "modified"

        def update(j, value):
            z[j - 1] = value
            fit.refit(by_runs)

    counts = [0] * m
    table = np.empty((thresholds.size, m))

    row = 0
    for j, recorded in zip(groups, record):
        counts[j] += 1
        update(j + 1, counts[j] / w_list[j])
        if recorded:
            # One division of exact integer sums (rounding z * w recovers the
            # counts) makes each block mean correctly rounded whatever the
            # pooling order, so rows cannot fall by an ulp.
            b = np.array(fit.bounds)
            lo = b[:-1]
            block_means = np.add.reduceat(np.rint(z * w), lo) / np.add.reduceat(w, lo)
            table[row] = np.repeat(block_means, b[1:] - lo)
            row += 1

    return DistributionFamilyEstimate(obs.covariates.copy(), thresholds, table.T)
