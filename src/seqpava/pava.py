"""Weighted least-squares fitting under a non-increasing constraint.

The minimizer of ``sum_j w_j * (z_j - f_j)**2`` over non-increasing vectors
``f`` is piecewise constant, so it is represented compactly as
:class:`FittedBlocks`: the right edges of the blocks that partition the index
range, together with the block means and block weights. Two batch solvers
produce that representation: :func:`fit_standard` absorbs one index at a
time and pools backwards whenever adjacent block means stop decreasing,
while :func:`fit_modified` seeds each new block with a maximal constant run
of the response vector, which pays off on inputs with long plateaus. Both
compute the same fit, through :class:`BlockFit`, which is also the way to
update a fit in place when response values change: :meth:`BlockFit.set_many`
reworks only the span the changes touch and reports the blocks it replaced,
which :meth:`BlockFit.restore` puts back, and :meth:`BlockFit.snapshot`
copies the current fit out as :class:`FittedBlocks`. :meth:`BlockFit.set`
changes one position and is what a batch of one goes through; every longer
batch is checked and written with numpy. The span goes back in by constant
runs, except that the positions strictly between a batch's first and last
change enter by maximal non-decreasing runs at their weighted means:
neighbours that do not decrease share a level set of every non-increasing
fit, and a batch of many changes leaves few constant runs there. A batch of one has no such positions, so
:meth:`BlockFit.set` pushes constant runs, each at its exact value.

Public index arguments are 1-based; block ``s`` of a fit covers positions
``b[s-1]+1 .. b[s]`` of its boundary vector ``b``, with ``b[0] == 0``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isclose, isfinite
from operator import neg
from typing import Iterator

import numpy as np

__all__ = [
    "WeightedSeries",
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
class FittedBlocks:
    """A non-increasing fit in block form: right edges, block means, block weights.

    ``boundaries`` holds ``(b[0], ..., b[d])`` with ``b[0] == 0``; block ``s``
    covers positions ``b[s-1]+1 .. b[s]`` and has mean ``means[s-1]`` and
    weight ``weights[s-1]``.

    Block means decrease strictly. The solvers pool neighbouring blocks whose
    computed means are equal; rounding can still keep apart two blocks whose
    true means are equal, as long as the stored means decrease.
    """

    boundaries: np.ndarray
    means: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.boundaries, dtype=np.int64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("boundaries must hold at least (0, b_1)")
        if b[0] != 0 or not (np.diff(b) > 0).all():
            raise ValueError("boundaries must start at 0 and increase strictly")
        means = _as_float_vector(self.means, "means")
        weights = _as_float_vector(self.weights, "weights")
        d = b.size - 1
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
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)

    @property
    def partition(self) -> FittedBlocks:
        """The fit itself: ``blocks.partition.boundaries`` is ``blocks.boundaries``."""
        # perfbench/harness.py reads the edges this way; it runs unchanged
        # against older commits, whose fits kept them in a partition object
        return self

    @property
    def d(self) -> int:
        """Number of blocks."""
        return self.boundaries.size - 1

    @property
    def m(self) -> int:
        """Number of covered positions."""
        return int(self.boundaries[-1])

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Yield each block as a 1-based inclusive (lo, hi) pair."""
        b = self.boundaries
        for s in range(1, b.size):
            yield int(b[s - 1]) + 1, int(b[s])

    def validate(self, series: WeightedSeries, rtol: float = 1e-9) -> None:
        """Recompute every block weight and mean from the raw series.

        Uses direct summation, independent of the incremental update rules
        the solvers use, and raises ValueError on disagreement beyond
        ``rtol``.
        """
        if self.m != series.m:
            raise ValueError(f"partition covers {self.m} positions, series has {series.m}")
        for s, (lo, hi) in enumerate(self.blocks()):
            total, mean = _stretch(series.z[lo - 1 : hi], series.w[lo - 1 : hi])
            if not isclose(total, float(self.weights[s]), rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"block {s + 1} weight mismatch: stored {self.weights[s]}, summed {total}"
                )
            if not isclose(mean, float(self.means[s]), rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"block {s + 1} mean mismatch: stored {self.means[s]}, summed {mean}"
                )


_INTEGERS = (int, np.integer)  # the types :class:`BlockFit` takes as positions


def _refuse(positions, values, m: int) -> None:
    """Raise on the first bad entry of a batch for a fit of length ``m``; return if none.

    Positions must be integers in 1..m that increase strictly, values finite.
    """
    last = 0
    for j, value in zip(positions, values):
        if not isinstance(j, _INTEGERS):
            raise TypeError(f"position {j!r} is not an integer")
        if not 1 <= j <= m:
            raise IndexError(f"position {j} is outside 1..{m}")
        if j <= last:
            raise ValueError(f"positions must increase strictly, got {j} after {last}")
        if not isfinite(value):
            raise ValueError(f"new value at position {j} must be finite, got {value}")
        last = j


# Below this many indices, finding runs with numpy costs more than pushing
# every index as its own run.
_SHORT_SPAN = 16


def _runs(z: np.ndarray, w: np.ndarray, lo: int, hi: int, split=np.not_equal) -> tuple:
    """Right edges (as boundary entries), values and weights of the runs of ``z[lo:hi]``.

    A run is a maximal stretch of ``z`` that ``split(next, previous)`` does
    not cut: a constant run by default, a non-decreasing run with
    ``np.less``. A constant run enters at its value, any other run at its
    weighted mean, which stays finite as :func:`_stretch`'s does. A run's
    weight is summed from ``w``, never differenced from cumulative weights,
    so a large weight to its left cannot cancel it. Spans shorter than
    ``_SHORT_SPAN`` are split into single indices instead.
    """
    seg = z[lo:hi]
    if hi - lo < _SHORT_SPAN:
        return range(lo + 1, hi + 1), seg.tolist(), w[lo:hi].tolist()
    is_start = np.empty(seg.size, dtype=bool)
    is_start[0] = True
    split(seg[1:], seg[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    edges = (starts[1:] + lo).tolist()
    edges.append(hi)
    values = seg[starts]
    weights = np.add.reduceat(w[lo:hi], starts)
    if split is not np.not_equal:
        stops = np.append(starts[1:], seg.size)
        mixed = np.flatnonzero(values != seg[stops - 1])  # the runs that are not constant
        if mixed.size:
            with np.errstate(over="ignore", invalid="ignore"):
                means = np.add.reduceat(seg * w[lo:hi], starts)[mixed] / weights[mixed]
            values[mixed] = means
            for r in mixed[~np.isfinite(means)]:  # the weighted sum overflowed
                values[r] = _stretch(seg[starts[r] : stops[r]], w[lo + starts[r] : lo + stops[r]])[1]
    return edges, values.tolist(), weights.tolist()


def _absorb(bounds: list, means: list, weights: list, edges, values, run_weights) -> None:
    """Extend a fit held in :class:`BlockFit`'s lists by runs.

    Run ``r`` ends at boundary ``edges[r]`` and enters as one block of mean
    ``values[r]`` and weight ``run_weights[r]``. It then pools with its left
    neighbour while that neighbour's mean is not larger, so equal
    neighbouring means merge. The pooled mean stays finite whenever the
    means it combines are.

    The last block, which later runs may still pool into, stays in locals
    until a run keeps apart from it. Blocks pool in the order and by the
    operations of appending and popping every run, so every float is the same.
    """
    units = zip(edges, values, run_weights)
    for edge, mean, weight in units:  # the first run; the loops below take the rest
        while True:
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
            for edge_r, mean_r, weight_r in units:
                if mean <= mean_r:  # the run pools into the open block, which may pool on
                    total = weight + weight_r
                    diff = mean_r - mean
                    if diff - diff == 0.0:
                        mean += diff * (weight_r / total)
                    else:
                        mean = mean * (weight / total) + mean_r * (weight_r / total)
                    edge, weight = edge_r, total
                    break
                bounds.append(edge)
                means.append(mean)
                weights.append(weight)
                edge, mean, weight = edge_r, mean_r, weight_r
            else:
                break
        bounds.append(edge)
        means.append(mean)
        weights.append(weight)


class BlockFit:
    """The fit of a response vector that it owns, kept in lists and updated in place.

    Built from a validated :class:`WeightedSeries`: ``z`` is the engine's own
    copy of its responses and ``w`` its weights. :meth:`set` and
    :meth:`set_many` edit ``z``; after editing it directly, call
    :meth:`refit`. Block ``s`` covers 1-based positions
    ``bounds[s-1]+1 .. bounds[s]`` and has mean ``means[s-1]`` and weight
    ``weights[s-1]``. The fit is computed by constant runs
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

    def set(self, j: int, value: float) -> tuple:
        """Set ``z`` at 1-based position ``j`` to ``value``, update the fit and report.

        :meth:`set_many` hands every batch of one to this method. The
        position and value are checked as each entry of a batch is, with the
        same errors. Raising ``z[j]`` keeps the head of the touched block
        pooled, lowering it keeps the tail; an unchanged value reports
        ``(1, 0, [], [], [])``.
        """
        zv = self._z
        if not (isinstance(j, _INTEGERS) and 1 <= j <= len(zv) and isfinite(value)):
            _refuse((j,), (value,), len(zv))
        old = zv[j - 1]
        if value == old:
            return 1, 0, [], [], []
        zv[j - 1] = value
        if type(j) is not int:  # a numpy integer or True must not become an edge
            j = int(j)
        return self._rework(j, j, value > old, value < old)

    def set_many(self, positions, values) -> tuple:
        """Set ``z`` at the 1-based ``positions`` to ``values``, update the fit once and report.

        ``positions`` increase strictly. Positions whose value does not change
        are dropped first, so a batch without a change leaves the fit as it is
        and reports ``(1, 0, [], [], [])``. Let the first changed position lie
        in block ``s1`` and the last in block ``sr``, and let ``a+1..b`` be
        the span from the start of ``s1`` to the end of ``sr``. Blocks left of
        ``s1`` are the fit of the prefix ``z[:a]``, which no change touches,
        so they stay unless the span pools into them. Reversing the index
        order and negating the values maps non-increasing fits to
        non-increasing fits, so by the mirror argument blocks right of ``sr``
        are the fit of the untouched suffix. The span is pushed back by runs,
        and old right blocks are re-pushed while they no longer lie strictly
        below the last block. Neighbours with ``z_i <= z_{i+1}`` share a level
        set of every non-increasing fit, so the positions strictly between the
        first and the last changed one enter by maximal non-decreasing runs of
        the new ``z``, each at its weighted mean. The rest of the span enters
        by constant runs, each at its value; a batch of one has no such
        interior, so :meth:`set` pushes only constant runs and the stretch
        pooled below.

        When no change lowers ``z``, the head ``a+1..j1`` up to the first
        changed position stays in one level set of the new fit; when no
        change raises it, the tail ``jr..b`` from the last changed position
        does. That stretch is pushed as one unit, since pre-pooling a stretch
        that lies inside one level set of the new fit cannot change it. A
        batch that moves ``z`` both ways pre-pools nothing. The result is the
        exact fit of the new ``z``. Positions that are not integers, not
        strictly increasing or outside 1..m, and non-finite values, raise
        before anything changes. A batch of one goes to :meth:`set`. Any
        other batch is checked and written with numpy; one that numpy does
        not take as integer positions and float values at once is checked
        entry by entry, so the error names the first bad entry, and a valid
        one is then converted to such arrays.

        The reworked blocks are built on small lists. When a change raises
        ``z`` they are seeded with up to ``b - a`` left blocks next to
        ``s1``; should pooling reach past the seeds, the span is pushed again
        onto every left block whose mean is at most the first new block's,
        found by bisection on the decreasing means. The new blocks are spliced
        into the fit's lists in place, so an update costs the blocks it
        reworks plus one memory move of the later blocks, not a copy of the
        fit, and the blocks are those that pushes onto the whole lists would
        give.

        Returns the report of what was replaced, ``(s0, count, bounds, means,
        weights)``: from block ``s0`` on, the old blocks given by their right
        edges, means and weights gave way to ``count`` new blocks. It costs
        the replaced blocks; :meth:`restore` takes it to put them back.
        """
        if len(positions) != len(values):
            raise ValueError(f"got {len(positions)} positions but {len(values)} values")
        if len(positions) == 1:
            return self.set(positions[0], values[0])
        if not len(positions):
            return 1, 0, [], [], []
        m = self.z.size
        index, new = np.asarray(positions), np.asarray(values)
        if not (
            index.dtype.kind in "iu"
            and new.dtype.kind == "f"
            and index.ndim == 1
            and new.shape == index.shape
            and 1 <= index[0]
            and index[-1] <= m
            and (index[1:] > index[:-1]).all()
            and np.isfinite(new).all()
        ):
            _refuse(positions, values, m)
            index, new = np.array(positions, dtype=np.int64), np.array(values, dtype=float)
        index = index - 1
        old = self.z[index]
        changed = new != old
        if not changed.all():
            index, new, old = index[changed], new[changed], old[changed]
            if not index.size:
                return 1, 0, [], [], []
        self.z[index] = new
        up, down = (new > old).any(), (new < old).any()
        return self._rework(int(index[0]) + 1, int(index[-1]) + 1, up, down)

    def _rework(self, first: int, last: int, up: bool, down: bool) -> tuple:
        """Rework the fit after ``z`` changed at positions ``first`` .. ``last``; report.

        ``up`` says that some change raised ``z`` and ``down`` that some
        lowered it. The span rule, the pre-pooled stretch, the seeds and the
        splice are those described in :meth:`set_many`.
        """
        z, w, zv, wv = self.z, self.w, self._z, self._w
        bounds, means, weights = self.bounds, self.means, self.weights
        s1 = bisect_left(bounds, first)  # bounds[s1-1] < first <= bounds[s1]
        sr = s1 if last <= bounds[s1] else bisect_left(bounds, last, s1)
        a = bounds[s1 - 1]
        b = bounds[sr]
        # z[a:lo] stays pooled when no change lowers z, z[hi:b] when none
        # raises it; a mixed batch pre-pools neither, since either could
        # split a level set
        lo = a if down else first
        hi = b if up else last - 1
        pushes = []  # (edges, values, weights) that rebuild z[a:b]
        if lo > a:
            if lo - a == 1:
                pushes.append(((lo,), (zv[a],), (wv[a],)))
            else:
                weight, mean = _stretch(z[a:lo], w[a:lo])
                pushes.append(((lo,), (mean,), (weight,)))
        if last - first < 2:
            if hi > lo:
                pushes.append(_runs(z, w, lo, hi))
        else:  # positions strictly between first and last enter by non-decreasing runs
            if first > lo:
                pushes.append(_runs(z, w, lo, first))
            pushes.append(_runs(z, w, first, last - 1, np.less))
            if hi > last - 1:
                pushes.append(_runs(z, w, last - 1, hi))
        if hi < b:
            if b - hi == 1:
                pushes.append(((b,), (zv[hi],), (wv[hi],)))
            else:
                weight, mean = _stretch(z[hi:b], w[hi:b])
                pushes.append(((b,), (mean,), (weight,)))
        # Without a raise, pooling into a left block takes rounding. A raise
        # seeds as many left blocks as the span has positions: copying them
        # costs less than pushing the span again would.
        s0 = max(1, s1 - (b - a)) if up else s1
        while True:
            new_bounds = bounds[s0:s1]
            new_means = means[s0 - 1 : s1 - 1]
            new_weights = weights[s0 - 1 : s1 - 1]
            for push in pushes:
                _absorb(new_bounds, new_means, new_weights, *push)
            # Re-push old right blocks that no longer lie strictly below the
            # last block: after a decrease this pools rightwards, after
            # increases only rounding can get past the first comparison.
            end = sr
            while end < len(means) and new_means[-1] <= means[end]:
                block = (bounds[end + 1],), (means[end],), (weights[end],)
                _absorb(new_bounds, new_means, new_weights, *block)
                end += 1
            # The first new block's mean only grows as blocks pool into it, so
            # the lists match pushes onto the full lists unless the block left
            # of the seeds ends up not above it. Then seed every block not
            # above it and push again.
            if s0 == 1 or means[s0 - 2] > new_means[0]:
                break
            s0 = bisect_left(means, -new_means[0], 0, s0 - 1, key=neg) + 1
        # seeded blocks that no pooling reached keep their edges, all <= a
        keep = bisect_right(new_bounds, a)
        if keep:
            s0 += keep
            del new_bounds[:keep]
            del new_means[:keep]
            del new_weights[:keep]
        return self.restore((s0, end + 1 - s0, new_bounds, new_means, new_weights))

    def restore(self, report: tuple) -> tuple:
        """Swap in the blocks a report names; return the report that swaps them back.

        A report ``(s0, count, bounds, means, weights)`` says that from block
        ``s0`` on, ``count`` blocks of the fit give way to the blocks given by
        their right edges, means and weights. Restoring the report of
        :meth:`set_many` on the fit it left puts back the blocks it replaced;
        ``z`` is left to the caller. Costs the blocks swapped, not the length
        of the fit.
        """
        s0, count, bounds, means, weights = report
        end = s0 + count
        inverse = (
            s0, len(means), self.bounds[s0:end], self.means[s0 - 1 : end - 1], self.weights[s0 - 1 : end - 1]
        )
        self.bounds[s0:end] = bounds
        self.means[s0 - 1 : end - 1] = means
        self.weights[s0 - 1 : end - 1] = weights
        return inverse

    def snapshot(self) -> FittedBlocks:
        """The current fit as an immutable :class:`FittedBlocks`."""
        return FittedBlocks(self.bounds, self.means, self.weights)


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
    return np.repeat(blocks.means, np.diff(blocks.boundaries))


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
        yield FittedBlocks(bounds, means, weights)
