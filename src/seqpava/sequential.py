"""Incremental refitting after a single response value changes.

Raising one response component can only coarsen the fitted partition to its
left, and it leaves every block strictly to the right of the touched one
unchanged. Reversing the index order and negating the values maps
non-increasing fits to non-increasing fits, so lowering a component is the
mirror case: blocks left of the touched one stay unchanged. Either way
:func:`update_any` reworks only the touched block and whatever pools with
it, through :meth:`~seqpava.pava.BlockFit.set`, the same engine and pooling
kernel behind :func:`~seqpava.pava.fit_modified`. The result is exactly the
fit a batch solver computes on the modified vector, at a fraction of the
work.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pava import BlockFit, FittedBlocks, WeightedSeries, expand

__all__ = ["SequentialState", "init", "update_increase", "update_any"]


@dataclass(frozen=True)
class SequentialState:
    """A fit kept alongside the vector it fits, ready for cheap updates.

    ``engine`` is the :class:`~seqpava.pava.BlockFit` that holds ``z``, ``w``
    and their fit; a state never changes it, and an update works on a copy.
    ``blocks`` is the engine's fit, taken when the state is made.
    ``provenance`` records how the state was produced: "initial" from a
    fresh fit, or "abridged" from an update of one component, in either
    direction.
    """

    engine: BlockFit
    provenance: str = "initial"
    blocks: FittedBlocks = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", self.engine.snapshot())

    @property
    def z(self) -> np.ndarray:
        return self.engine.z

    @property
    def w(self) -> np.ndarray:
        return self.engine.w

    @property
    def m(self) -> int:
        return self.z.size

    def fit(self) -> np.ndarray:
        """The expanded fitted vector."""
        return expand(self.blocks)


def init(series: WeightedSeries) -> SequentialState:
    """Fit the series and package the result for sequential updating."""
    return SequentialState(BlockFit(series))


def update_increase(state: SequentialState, j_o: int, new_value: float) -> SequentialState:
    """Refit after raising the response at position ``j_o`` (1-based).

    Only the block containing ``j_o`` and whatever pools into it are
    reworked; blocks strictly to its right are reused unchanged. The result
    equals a batch refit of the modified vector.
    """
    if 1 <= j_o <= state.m and float(new_value) <= state.z[j_o - 1]:
        raise ValueError("decrease not supported by abridged path")
    return update_any(state, j_o, new_value)


def update_any(state: SequentialState, j_o: int, new_value: float) -> SequentialState:
    """Set the response at ``j_o`` (1-based) to ``new_value`` and refit.

    An unchanged value returns the state itself. An increase reuses every
    block right of the touched one, a decrease every block left of it; the
    result equals a batch refit of the modified vector.
    """
    if not 1 <= j_o <= state.m:
        raise IndexError(f"position must be in 1..{state.m}, got {j_o}")
    new_value = float(new_value)
    if new_value == state.z[j_o - 1]:
        return state
    fit = state.engine.copy()
    fit.set(j_o, new_value)
    return SequentialState(fit, provenance="abridged")
