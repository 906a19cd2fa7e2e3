"""Incremental refitting after a single response value increases.

Raising one response component can only coarsen the fitted partition to its
left, and it leaves every block strictly to the right of the touched one
unchanged. :func:`update_increase` exploits that: it shortens the touched
block at the raised position, remeasures it, pools leftwards, re-absorbs the
remainder of the touched block by its constant runs, and splices the
untouched right blocks back. Pushing and pooling go through the same
run-seeded kernel as :func:`~seqpava.pava.fit_modified`. The result is
exactly the fit a batch solver computes on the modified vector, at a
fraction of the work.

Decreases do not enjoy those guarantees; :func:`update_any` falls back to a
full refit for them so the public surface stays total.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .pava import FittedBlocks, WeightedSeries, expand, fit_modified
from .pava import _absorb, _blocks_from_lists, _runs

__all__ = ["SequentialState", "init", "update_increase", "update_any"]


@dataclass(frozen=True)
class SequentialState:
    """A fit kept alongside the vector it fits, ready for cheap updates.

    ``blocks`` is always the exact fit of ``(z, w)``. ``provenance`` records
    how the state was produced: "initial" from a fresh fit, "abridged" from
    the fast single-increase path, or "recomputed" after a decrease forced a
    full refit.
    """

    blocks: FittedBlocks
    z: np.ndarray
    w: np.ndarray
    provenance: str = "initial"

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if z.size != self.blocks.partition.m or w.size != z.size:
            raise ValueError("state vectors must match the partition length")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.z.size

    def fit(self) -> np.ndarray:
        """The expanded fitted vector."""
        return expand(self.blocks)


def init(series: WeightedSeries) -> SequentialState:
    """Fit the series and package the result for sequential updating."""
    return SequentialState(fit_modified(series), series.z.copy(), series.w.copy())


def _abridged_update(bounds, means, weights, z, w, w_list, j0, value):
    """Apply the increase ``z[j0] <- value`` (1-based ``j0``) to a fit in lists.

    ``bounds``/``means``/``weights`` describe the current fit and are
    modified in place; ``z`` is the numpy response vector (modified), ``w``
    its numpy weights and ``w_list`` the same weights as a list. ``value``
    must exceed ``z[j0 - 1]``; the caller is responsible for checking that.

    The touched block is cut at ``j0``; its remeasured head pools leftwards,
    then the rest of the block is re-absorbed by its constant runs, so the
    work is the reworked span counted in runs, not in indices.
    """
    s0 = bisect_left(bounds, j0)  # block s0 covers j0: bounds[s0-1] < j0 <= bounds[s0]
    a = bounds[s0 - 1]
    b_end = bounds[s0]
    z[j0 - 1] = value

    tail_bounds = bounds[s0 + 1 :]
    tail_means = means[s0:]
    tail_weights = weights[s0:]

    # shorten the touched block to end at j0 and remeasure it under the new z
    del bounds[s0:]
    del means[s0 - 1 :]
    del weights[s0 - 1 :]
    if j0 - a == 1:
        head_mean = value
        head_weight = w_list[a]
    else:
        head_weight = sum(w_list[a:j0])
        head_mean = float(np.dot(w[a:j0], z[a:j0])) / head_weight
    _absorb(bounds, means, weights, (j0,), (head_mean,), (head_weight,))
    if j0 < b_end:
        _absorb(bounds, means, weights, *_runs(z, w, j0, b_end))

    # blocks right of the touched one are unaffected; splice them back
    bounds.extend(tail_bounds)
    means.extend(tail_means)
    weights.extend(tail_weights)


def update_increase(state: SequentialState, j_o: int, new_value: float) -> SequentialState:
    """Refit after raising the response at position ``j_o`` (1-based).

    Only the block containing ``j_o`` and whatever pools into it are
    reworked; blocks strictly to its right are reused unchanged. The result
    equals a batch refit of the modified vector.
    """
    if not 1 <= j_o <= state.m:
        raise IndexError(f"position must be in 1..{state.m}, got {j_o}")
    new_value = float(new_value)
    if not np.isfinite(new_value):
        raise ValueError("new value must be finite")
    if new_value <= state.z[j_o - 1]:
        raise ValueError("decrease not supported by abridged path")

    bounds = state.blocks.partition.boundaries.tolist()
    means = state.blocks.means.tolist()
    weights = state.blocks.weights.tolist()
    z = state.z.copy()
    _abridged_update(bounds, means, weights, z, state.w, state.w.tolist(), j_o, new_value)

    blocks = _blocks_from_lists(bounds, means, weights)
    return SequentialState(blocks, z, state.w, provenance="abridged")


def update_any(state: SequentialState, j_o: int, new_value: float) -> SequentialState:
    """Set the response at ``j_o`` to ``new_value`` via the cheapest valid route.

    Increases take the fast path, an unchanged value returns the state
    itself, and decreases fall back to a full refit (provenance
    "recomputed").
    """
    if not 1 <= j_o <= state.m:
        raise IndexError(f"position must be in 1..{state.m}, got {j_o}")
    new_value = float(new_value)
    current = float(state.z[j_o - 1])
    if new_value == current:
        return state
    if new_value > current:
        return update_increase(state, j_o, new_value)
    z = state.z.copy()
    z[j_o - 1] = new_value
    series = WeightedSeries(z, state.w)
    return SequentialState(fit_modified(series), series.z, series.w, provenance="recomputed")
