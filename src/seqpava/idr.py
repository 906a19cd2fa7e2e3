"""Estimation of a family of conditional CDFs ordered by a covariate.

Given observations ``(x_i, y_i)``, the goal is an estimate of the
conditional distribution function at every unique covariate, constrained so
that larger covariates give stochastically larger responses. Sweeping the
sorted responses from below, the per-group indicator averages
``z_j(y) = mean of 1[y_i <= y] within group j`` change from one threshold to
the next only in the groups with responses at the new threshold, and the
non-increasing least-squares fit of that vector is the column of CDF
estimates at threshold ``y``. The "abridged" variant carries the fit across
thresholds with one incremental update per threshold, which reworks only the
span of blocks between the first and the last changed group; "standard" and
"modified" refit from scratch once per threshold with the corresponding
batch solver. Recorded columns are computed from exact integer sums over the
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
    covariate group. Construction checks both, since the sweep counts
    observations per group against these weights.
    """

    x: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    weights: np.ndarray
    group_index: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "y", "covariates", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "group_index", np.asarray(self.group_index))
        if self.x.size == 0:
            raise ValueError("need at least one observation")
        if self.y.size != self.x.size or self.group_index.size != self.x.size:
            raise ValueError("observation fields must have equal length")
        if not (np.diff(self.covariates) > 0).all():
            raise ValueError("covariates must be strictly increasing")
        m = self.covariates.size
        if not np.issubdtype(self.group_index.dtype, np.integer):
            raise ValueError("group index must hold integers")
        if self.group_index.min() < 0 or self.group_index.max() >= m:
            raise ValueError(f"group index must lie in 0..{m - 1}")
        if (self.covariates[self.group_index] != self.x).any():
            raise ValueError("group index does not map observations to their covariates")
        counts = np.bincount(self.group_index, minlength=m)
        if self.weights.shape != counts.shape or (self.weights != counts).any():
            raise ValueError("group weights must be the number of observations in each group")

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
    :meth:`validate`; construction checks the shapes, and that covariates
    and thresholds are finite and increase strictly.
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
        if not np.isfinite(thresholds).all() or not np.isfinite(covariates).all():
            raise ValueError("covariates and thresholds must be finite")
        if not (np.diff(thresholds) > 0).all():
            raise ValueError("thresholds must be strictly increasing")
        if not (np.diff(covariates) > 0).all():
            raise ValueError("covariates must be strictly increasing")
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
        if not ((0.0 <= cdf) & (cdf <= 1.0)).all():  # NaN fails both comparisons
            raise ValueError("cdf entries must be numbers in [0, 1]")
        if (cdf[:, -1] != 1.0).any():
            raise ValueError("last column must be exactly 1")
        # comparing neighbours, not their differences, allocates no float table
        if (cdf[:, 1:] < cdf[:, :-1]).any():
            raise ValueError("rows must be non-decreasing in the threshold")
        if (cdf[1:] > cdf[:-1]).any():
            raise ValueError("columns must be non-increasing in the covariate")

    def cdf_at(self, j: int, y: float) -> float:
        """CDF estimate at covariate index ``j`` (1-based) and threshold ``y``.

        Right-continuous step evaluation: 0 below the first threshold,
        otherwise the column of the largest threshold ``<= y``.
        """
        if not 1 <= j <= self.m:
            raise IndexError(f"covariate index must be in 1..{self.m}, got {j}")
        if np.isnan(y):
            raise ValueError("threshold y must not be NaN")
        t = int(np.searchsorted(self.thresholds, y, side="right")) - 1
        if t < 0:
            return 0.0
        return float(self.cdf[j - 1, t])

    def quantile(self, j: int, beta: float) -> float:
        """Smallest threshold where the CDF estimate at covariate ``j`` reaches ``beta``.

        It counts the thresholds that reach ``beta``, so it is defined on rows
        that do not decrease, as :meth:`validate` checks.
        """
        if not 1 <= j <= self.m:
            raise IndexError(f"covariate index must be in 1..{self.m}, got {j}")
        return float(self._first_reaching(j - 1, j, beta)[0])

    def quantiles(self, betas) -> np.ndarray:
        """The (m, len(betas)) curves: entry ``[j - 1, i]`` is ``quantile(j, betas[i])``."""
        curves = np.empty((self.m, len(betas)))
        for i, beta in enumerate(betas):
            curves[:, i] = self._first_reaching(0, self.m, beta)
        return curves

    def _first_reaching(self, lo: int, hi: int, beta: float) -> np.ndarray:
        """For rows ``lo..hi-1`` of ``cdf``, the smallest threshold whose value reaches ``beta``."""
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must satisfy 0 < beta <= 1, got {beta}")
        first = self.k - np.count_nonzero(self.cdf[lo:hi] >= beta, axis=1)
        missed = np.flatnonzero(first == self.k)  # rows where no threshold reaches beta
        if missed.size:
            j = lo + int(missed[0]) + 1
            raise ValueError(f"the CDF estimate at covariate index {j} never reaches beta = {beta}")
        return self.thresholds[first]


def fit_family(obs: ObservationSet, variant: str = "abridged") -> DistributionFamilyEstimate:
    """Estimate the CDF family by sweeping the sorted responses.

    Observations are sorted by response, ties broken by covariate group, and
    swept by cells: a cell is a maximal run of sorted observations with equal
    response and group, so each threshold has one cell per group it changes.
    At each threshold, the abridged variant updates the fit once with all of
    its cells through :meth:`~seqpava.pava.BlockFit.set_many`, reworking only
    the span from the first to the last changed group; the batch variants
    write z per cell and refit. Each recorded column is the fit after all of
    a threshold's cells, so it does not depend on the tie order.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    m = obs.m
    n = obs.n
    w = obs.weights
    w_list = w.tolist()

    y = np.sort(obs.y)
    thresholds = y[np.append(True, y[1:] != y[:-1])]
    zeros = np.flatnonzero(obs.y == 0.0)
    if zeros.size:
        # -0.0 == 0.0, so both fall in one threshold; it keeps the sign of
        # the first zero in (group, input row) order, whichever the sort put first
        first = zeros[obs.group_index[zeros].argmin()]
        thresholds[np.searchsorted(thresholds, 0.0)] = obs.y[first]
    # one key per observation, ordered by response threshold, then group
    keys = np.searchsorted(thresholds, obs.y)
    keys *= m
    keys += obs.group_index.astype(np.int64, copy=False)
    keys.sort()
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    cell_levels, cell_groups = np.divmod(keys[starts], m)
    # threshold t owns cells edges[t]..edges[t+1]-1, in increasing group order
    edges = np.append(np.flatnonzero(np.diff(cell_levels, prepend=-1)), starts.size).tolist()
    # the z value of each cell's group once the cell is counted
    counts = [0] * m
    values = []
    for j, size in zip(cell_groups.tolist(), np.diff(starts, append=n).tolist()):
        counts[j] += size
        values.append(counts[j] / w_list[j])
    positions = (cell_groups + 1).tolist()

    fit = BlockFit(WeightedSeries(np.zeros(m), w))
    z = fit.z
    table = np.empty((thresholds.size, m))
    for row, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if variant == "abridged":
            fit.set_many(positions[lo:hi], values[lo:hi])
        else:
            z[cell_groups[lo:hi]] = values[lo:hi]
            fit.refit(variant == "modified")
        # One division of exact integer sums (rounding z * w recovers the
        # counts) makes each block mean correctly rounded whatever the
        # pooling order, so rows cannot fall by an ulp.
        b = np.array(fit.bounds)
        left = b[:-1]
        block_means = np.add.reduceat(np.rint(z * w), left) / np.add.reduceat(w, left)
        table[row] = np.repeat(block_means, b[1:] - left)

    return DistributionFamilyEstimate(obs.covariates.copy(), thresholds, table.T)
