"""Weighted least-squares fitting under a non-increasing constraint.

The minimizer of ``sum_j w_j * (z_j - f_j)**2`` over non-increasing vectors
``f`` is piecewise constant, so it is represented compactly by a partition of
the index range into blocks together with the block means and block weights.
Two batch solvers produce that representation: :func:`fit_standard` absorbs
one index at a time and pools backwards whenever adjacent block means stop
decreasing, while :func:`fit_modified` seeds each new block with a maximal
constant run of the response vector, which pays off on inputs with long
plateaus. Both compute the same fit.

Public index arguments are 1-based; block ``s`` of a partition covers
positions ``b[s-1]+1 .. b[s]`` of the boundary vector ``b`` with ``b[0] == 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isclose
from typing import Iterator

import numpy as np

__all__ = [
    "WeightedSeries",
    "BlockPartition",
    "FittedBlocks",
    "weighted_mean",
    "fit_standard",
    "fit_modified",
    "expand",
    "isotonic_fit",
    "iter_prefix_fits",
]


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class WeightedSeries:
    """Response vector paired with strictly positive weights.

    Values and weights are validated and copied at construction; instances
    are immutable afterwards. Weights default to 1. Non-finite entries are
    rejected rather than propagated into a fit.
    """

    z: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        z = _as_float_vector(self.z, "z")
        if z.size == 0:
            raise ValueError("series must contain at least one element")
        if not np.isfinite(z).all():
            raise ValueError("response values must be finite")
        if self.w is None:
            w = np.ones_like(z)
        else:
            w = _as_float_vector(self.w, "w")
            if w.shape != z.shape:
                raise ValueError(f"z has length {z.size} but w has length {w.size}")
            if not np.isfinite(w).all() or not (w > 0).all():
                raise ValueError("weights must be finite and strictly positive")
            with np.errstate(over="ignore"):
                total = w.sum()
            if not np.isfinite(total):
                raise ValueError("weights must have a finite total")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.z.size

    def __len__(self) -> int:
        return self.z.size


def weighted_mean(series: WeightedSeries, lo: int, hi: int) -> float:
    """Weighted average of the responses over positions lo..hi (1-based, inclusive)."""
    if not 1 <= lo <= hi <= series.m:
        raise IndexError(f"need 1 <= lo <= hi <= {series.m}, got lo={lo}, hi={hi}")
    w = series.w[lo - 1 : hi]
    return float(np.dot(w, series.z[lo - 1 : hi]) / w.sum())


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous blocks of 1..m encoded by their right edges.

    ``boundaries`` holds ``(b_0, ..., b_d)`` with ``b_0 == 0``; block ``s``
    covers positions ``b_{s-1}+1 .. b_s``. Boundary vectors are the exchange
    format for partitions throughout the package.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.boundaries, dtype=np.int64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("boundaries must hold at least (0, b_1)")
        if b[0] != 0 or not (np.diff(b) > 0).all():
            raise ValueError("boundaries must start at 0 and increase strictly")
        object.__setattr__(self, "boundaries", b)

    @property
    def d(self) -> int:
        """Number of blocks."""
        return self.boundaries.size - 1

    @property
    def m(self) -> int:
        """Number of covered positions."""
        return int(self.boundaries[-1])

    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Yield each block as a 1-based inclusive (lo, hi) pair."""
        b = self.boundaries
        for s in range(1, b.size):
            yield int(b[s - 1]) + 1, int(b[s])


@dataclass(frozen=True)
class FittedBlocks:
    """A non-increasing fit in block form: partition, block means, block weights.

    Block means decrease strictly; neighbouring blocks with equal means are
    always pooled by the solvers, so a valid fit never contains them.
    """

    partition: BlockPartition
    means: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        means = _as_float_vector(self.means, "means")
        weights = _as_float_vector(self.weights, "weights")
        d = self.partition.d
        if means.size != d or weights.size != d:
            raise ValueError(
                f"expected {d} block means and weights, got {means.size} and {weights.size}"
            )
        if not np.isfinite(means).all() or not np.isfinite(weights).all():
            raise ValueError("block means and weights must be finite")
        if not (np.diff(means) < 0).all():
            raise ValueError("block means must be strictly decreasing")
        if not (weights > 0).all():
            raise ValueError("block weights must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.partition.d

    def validate(self, series: WeightedSeries, rtol: float = 1e-9) -> None:
        """Recompute every block weight and mean from the raw series.

        Uses direct summation, independent of the incremental update rules
        the solvers use, and raises ValueError on disagreement beyond
        ``rtol``.
        """
        if self.partition.m != series.m:
            raise ValueError(
                f"partition covers {self.partition.m} positions, series has {series.m}"
            )
        for s, (lo, hi) in enumerate(self.partition.blocks()):
            w = series.w[lo - 1 : hi]
            total = float(w.sum())
            mean = float(np.dot(w, series.z[lo - 1 : hi]) / total)
            if not isclose(total, float(self.weights[s]), rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"block {s + 1} weight mismatch: stored {self.weights[s]}, summed {total}"
                )
            if not isclose(mean, float(self.means[s]), rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"block {s + 1} mean mismatch: stored {self.means[s]}, summed {mean}"
                )


def _blocks_from_lists(bounds: list, means: list, weights: list) -> FittedBlocks:
    return FittedBlocks(
        BlockPartition(np.array(bounds, dtype=np.int64)),
        np.array(means),
        np.array(weights),
    )


def _fit_standard_lists(z: list, w: list) -> tuple[list, list, list]:
    """One-index-at-a-time pooling pass over plain Python lists.

    Returns (bounds, means, weights) lists; block s covers 1-based positions
    bounds[s-1]+1 .. bounds[s] and has mean means[s-1]. Every index enters
    :func:`_absorb` as a run of its own.
    """
    bounds, means, weights = [0], [], []
    _absorb(bounds, means, weights, range(1, len(z) + 1), z, w)
    return bounds, means, weights


# Below this many indices, finding runs with numpy costs more than pushing
# every index as its own run.
_SHORT_SPAN = 16


def _runs(z: np.ndarray, w: np.ndarray, lo: int, hi: int) -> tuple:
    """Right edges (as boundary entries), values and weights of the runs of ``z[lo:hi]``.

    A run is a maximal constant stretch of ``z``; its weight is summed from
    ``w``, never differenced from cumulative weights, so a large weight to
    its left cannot cancel it. Spans shorter than ``_SHORT_SPAN`` are split
    into single indices instead.
    """
    seg = z[lo:hi]
    if hi - lo < _SHORT_SPAN:
        return range(lo + 1, hi + 1), seg.tolist(), w[lo:hi].tolist()
    is_start = np.empty(seg.size, dtype=bool)
    is_start[0] = True
    np.not_equal(seg[1:], seg[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    edges = (starts[1:] + lo).tolist()
    edges.append(hi)
    return edges, seg[starts].tolist(), np.add.reduceat(w[lo:hi], starts).tolist()


def _absorb(bounds: list, means: list, weights: list, edges, values, run_weights) -> None:
    """Extend a fit in lists, as :func:`_fit_standard_lists` returns it, by runs.

    Run ``r`` ends at boundary ``edges[r]`` and enters as one block of mean
    ``values[r]`` and weight ``run_weights[r]``. It then pools with its left
    neighbour while that neighbour's mean is not larger, so equal
    neighbouring means merge. The pooled mean stays finite whenever the
    means it combines are.
    """
    for edge, mean, weight in zip(edges, values, run_weights):
        while means and means[-1] <= mean:
            mp = means.pop()
            wp = weights.pop()
            del bounds[-1]
            total = wp + weight
            diff = mean - mp
            if diff - diff == 0.0:
                mean = mp + diff * (weight / total)
            else:  # the means have opposite signs and their difference overflowed
                mean = mp * (wp / total) + mean * (weight / total)
            weight = total
        bounds.append(edge)
        means.append(mean)
        weights.append(weight)


def _fit_modified_lists(z: np.ndarray, w: np.ndarray) -> tuple[list, list, list]:
    """Run-seeded pooling pass.

    ``z`` and ``w`` are the numpy response and weight vectors (run detection
    is vectorized). Returns the same lists as :func:`_fit_standard_lists`.
    Within a constant run no pooling decision is ever needed, so each run
    enters as a single block.
    """
    bounds, means, weights = [0], [], []
    _absorb(bounds, means, weights, *_runs(z, w, 0, z.size))
    return bounds, means, weights


def fit_standard(series: WeightedSeries) -> FittedBlocks:
    """Exact weighted least-squares fit over non-increasing vectors.

    Scans left to right, keeping the fit of the processed prefix in block
    form; each new index starts as its own block, then the last two blocks
    pool while their means are non-decreasing.
    """
    bounds, means, weights = _fit_standard_lists(series.z.tolist(), series.w.tolist())
    return _blocks_from_lists(bounds, means, weights)


def fit_modified(series: WeightedSeries) -> FittedBlocks:
    """Same minimizer as :func:`fit_standard`, seeded with maximal constant runs.

    Inputs with long plateaus (step functions, indicator averages) fit in
    far fewer pooling steps; on run-free inputs the passes coincide.
    """
    bounds, means, weights = _fit_modified_lists(series.z, series.w)
    return _blocks_from_lists(bounds, means, weights)


def expand(blocks: FittedBlocks) -> np.ndarray:
    """Expand block means to the full fitted vector (length ``b_d``)."""
    return np.repeat(blocks.means, blocks.partition.lengths())


def isotonic_fit(series: WeightedSeries) -> np.ndarray:
    """Weighted least-squares projection onto non-decreasing vectors.

    Computed by negating the non-increasing fit of the negated responses.
    """
    flipped = WeightedSeries(-series.z, series.w)
    return -expand(fit_standard(flipped))


def iter_prefix_fits(series: WeightedSeries) -> Iterator[FittedBlocks]:
    """Yield the fit of ``z[:j]`` for j = 1..m, as the standard scan builds it.

    The last yielded value equals ``fit_standard(series)``. Useful for
    inspecting how the partition evolves while indices are absorbed.
    """
    bounds, means, weights = [0], [], []
    for j, (mean, weight) in enumerate(zip(series.z.tolist(), series.w.tolist()), start=1):
        _absorb(bounds, means, weights, (j,), (mean,), (weight,))
        yield _blocks_from_lists(bounds, means, weights)
