"""Weighted least-squares fitting under a non-increasing constraint.

The minimizer of ``sum_j w_j * (z_j - f_j)**2`` over non-increasing vectors
``f`` is piecewise constant, so it is represented compactly by a partition of
the index range into blocks together with the block means and block weights.
Two batch solvers produce that representation: :func:`fit_standard` absorbs
one index at a time and pools backwards whenever adjacent block means stop
decreasing, while :func:`fit_modified` seeds each new block with a maximal
constant run of the response vector, which pays off on inputs with long
plateaus. Both compute the same fit, through :class:`BlockFit`, which also
updates a fit in place when one response value changes.

Public index arguments are 1-based; block ``s`` of a partition covers
positions ``b[s-1]+1 .. b[s]`` of the boundary vector ``b`` with ``b[0] == 0``.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isclose, isfinite
from typing import Iterator

import numpy as np

__all__ = [
    "WeightedSeries",
    "BlockPartition",
    "FittedBlocks",
    "BlockFit",
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


def _stretch(z: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Total weight and weighted mean of the responses ``z`` under weights ``w``.

    The weights are summed in order. The mean stays finite when the weighted
    sum overflows: the weights are then divided by their total first.
    """
    weight = sum(memoryview(w))
    # vdot, unlike dot, lets an overflow through without a warning
    mean = float(np.vdot(w, z)) / weight
    if mean - mean != 0.0:  # the weighted sum overflowed; scale the weights first
        mean = float(np.vdot(w / weight, z))
    return weight, mean


def weighted_mean(series: WeightedSeries, lo: int, hi: int) -> float:
    """Weighted average of the responses over positions lo..hi (1-based, inclusive)."""
    if not 1 <= lo <= hi <= series.m:
        raise IndexError(f"need 1 <= lo <= hi <= {series.m}, got lo={lo}, hi={hi}")
    return _stretch(series.z[lo - 1 : hi], series.w[lo - 1 : hi])[1]


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

    Block means decrease strictly. The solvers pool neighbouring blocks whose
    computed means are equal; rounding can still keep apart two blocks whose
    true means are equal, as long as the stored means decrease.
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
        if not (means[1:] < means[:-1]).all():
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
            total, mean = _stretch(series.z[lo - 1 : hi], series.w[lo - 1 : hi])
            if not isclose(total, float(self.weights[s]), rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"block {s + 1} weight mismatch: stored {self.weights[s]}, summed {total}"
                )
            if not isclose(mean, float(self.means[s]), rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"block {s + 1} mean mismatch: stored {self.means[s]}, summed {mean}"
                )


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
    """Extend a fit held in :class:`BlockFit`'s lists by runs.

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


class BlockFit:
    """The fit of a response vector that it owns, kept in lists and updated in place.

    Built from a validated :class:`WeightedSeries`: ``z`` is the engine's own
    copy of its responses and ``w`` its weights. :meth:`set` edits ``z``;
    after editing it directly, call :meth:`refit`. Block ``s`` covers 1-based
    positions ``bounds[s-1]+1 .. bounds[s]`` and has mean ``means[s-1]`` and
    weight ``weights[s-1]``. The fit is computed by constant runs
    (``by_runs``) or index by index. Every pass and every update pushes
    blocks through the one pooling kernel.
    """

    def __init__(self, series: WeightedSeries, *, by_runs: bool = True):
        if not isinstance(series, WeightedSeries):
            raise TypeError(f"BlockFit takes a WeightedSeries, got {type(series).__name__}")
        self.z = series.z.copy()
        self.w = series.w
        # element access through these views yields Python floats, far faster
        # than indexing the arrays, without copying them into lists
        self._z = memoryview(self.z)
        self._w = memoryview(self.w)
        self.refit(by_runs)

    def refit(self, by_runs: bool = True) -> None:
        """Fit ``z`` from scratch, for instance after editing it in place.

        By runs, each maximal constant run enters as one block, since no
        pooling decision is needed inside it; otherwise every index enters
        on its own.
        """
        self.bounds, self.means, self.weights = [0], [], []
        if by_runs:
            runs = _runs(self.z, self.w, 0, self.z.size)
        else:
            runs = range(1, self.z.size + 1), self._z, self._w
        _absorb(self.bounds, self.means, self.weights, *runs)

    def copy(self) -> BlockFit:
        """An engine of its own with the same fit, its own ``z`` and the same ``w``."""
        other = object.__new__(BlockFit)
        other.__dict__.update(self.__dict__)
        other.z = self.z.copy()
        other._z = memoryview(other.z)
        other.bounds, other.means, other.weights = self.bounds[:], self.means[:], self.weights[:]
        return other

    def set(self, j: int, value: float) -> None:
        """Set ``z`` at 1-based position ``j`` to ``value`` and update the fit.

        Only the touched block ``a+1..b`` and whatever pools with it are
        reworked. Raising ``z[j]`` leaves every block right of the touched
        one in place and keeps the head ``a+1..j`` pooled. Reversing the
        index order and negating the values maps non-increasing fits to
        non-increasing fits, so lowering it mirrors that: blocks left of the
        touched one stay and the tail ``j..b`` stays pooled. The block is cut
        at ``j`` and pushed back, the part that stays pooled as one unit and
        the rest by its constant runs. Old right blocks are then re-pushed
        while they no longer lie strictly below the last block, and the rest
        are spliced back. Pre-pooling a stretch that lies inside one level
        set of the new fit cannot change it, so the result is exact. A ``j``
        outside 1..m or a non-finite ``value`` raises before anything changes.
        """
        if j < 1:  # a j beyond m fails at bounds[s] below, before anything changes
            raise IndexError(f"position must be at least 1, got {j}")
        if not isfinite(value):
            raise ValueError(f"new value must be finite, got {value}")
        zv, wv = self._z, self._w
        bounds, means, weights = self.bounds, self.means, self.weights
        s = bisect_left(bounds, j)  # block s covers j: bounds[s-1] < j <= bounds[s]
        b = bounds[s]
        a = bounds[s - 1]
        # z[lo:hi] is the part of the block that stays pooled
        if value > zv[j - 1]:
            lo, hi = a, j
        else:
            lo, hi = j - 1, b
        zv[j - 1] = value
        right_bounds = bounds[s + 1 :]
        right_means = means[s:]
        right_weights = weights[s:]
        del bounds[s:]
        del means[s - 1 :]
        del weights[s - 1 :]
        if lo > a:
            _absorb(bounds, means, weights, *_runs(self.z, self.w, a, lo))
        if hi - lo == 1:
            mean, weight = value, wv[lo]
        else:
            weight, mean = _stretch(self.z[lo:hi], self.w[lo:hi])
        _absorb(bounds, means, weights, (hi,), (mean,), (weight,))
        if hi < b:
            _absorb(bounds, means, weights, *_runs(self.z, self.w, hi, b))
        # Re-push old right blocks that no longer lie strictly below the last
        # block: after a decrease this pools rightwards, after an increase only
        # rounding can get past the first comparison.
        if right_means and means[-1] <= right_means[0]:
            k = 0
            while k < len(right_means) and means[-1] <= right_means[k]:
                edge, mean, weight = right_bounds[k], right_means[k], right_weights[k]
                _absorb(bounds, means, weights, (edge,), (mean,), (weight,))
                k += 1
            del right_bounds[:k]
            del right_means[:k]
            del right_weights[:k]
        bounds.extend(right_bounds)
        means.extend(right_means)
        weights.extend(right_weights)

    def snapshot(self) -> FittedBlocks:
        """The current fit as an immutable :class:`FittedBlocks`."""
        return FittedBlocks(
            BlockPartition(np.array(self.bounds, dtype=np.int64)),
            np.array(self.means),
            np.array(self.weights),
        )


def fit_standard(series: WeightedSeries) -> FittedBlocks:
    """Exact weighted least-squares fit over non-increasing vectors.

    Scans left to right, keeping the fit of the processed prefix in block
    form; each new index starts as its own block, then the last two blocks
    pool while their means are non-decreasing.
    """
    return BlockFit(series, by_runs=False).snapshot()


def fit_modified(series: WeightedSeries) -> FittedBlocks:
    """Same minimizer as :func:`fit_standard`, seeded with maximal constant runs.

    Inputs with long plateaus (step functions, indicator averages) fit in
    far fewer pooling steps; on run-free inputs the passes coincide.
    """
    return BlockFit(series).snapshot()


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
    # the engine starts on index 1; its lists then grow to cover 1..j
    prefix = BlockFit(WeightedSeries(series.z[:1], series.w[:1]))
    yield prefix.snapshot()
    rest = zip(series.z[1:].tolist(), series.w[1:].tolist())
    for j, (mean, weight) in enumerate(rest, start=2):
        _absorb(prefix.bounds, prefix.means, prefix.weights, (j,), (mean,), (weight,))
        yield prefix.snapshot()
