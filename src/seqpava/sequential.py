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

This module is the persistent wrapper around that engine: every update
returns a new :class:`SequentialState` and leaves the one it started from
intact, so states can branch. All states that descend from one :func:`init`
share one engine, which holds the fit of exactly one of them. Every other
state holds a link to a neighbouring state, with the engine's report of the
update between them and the old value of the position it set, which
together turn the neighbour into it. Reading or updating a state first walks
its links to the state the engine holds, undoing each update on the way and
reversing each link, so the engine then holds the state read. An update of
the state the engine holds, as in a chain of updates, walks nothing and
costs the blocks it reworks; reaching another state costs the blocks the
updates between them reworked. Since reading a state changes the engine
its relatives share, the states of one :func:`init` are not safe to use
from several threads at once. A state's :attr:`~SequentialState.blocks`
are built when first read and kept, so an update whose blocks nobody reads
costs no snapshot. To update one fit in place, without keeping the earlier
ones, use :class:`~seqpava.pava.BlockFit` directly.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .pava import BlockFit, FittedBlocks, WeightedSeries, expand

__all__ = ["SequentialState", "init", "update_increase", "update_any"]


class SequentialState:
    """A fit kept alongside the vector it fits, ready for cheap updates.

    ``provenance`` records how the state was produced: "initial" from a
    fresh fit, or "abridged" from an update of one component, in either
    direction. A state's ``blocks``, ``fit()`` and ``z`` never change,
    whatever other states are read or updated.
    """

    def __init__(self, engine: BlockFit, provenance: str = "initial"):
        self._engine = engine
        # None while the engine holds this state; otherwise (neighbour, report,
        # position, value): restoring the report on the neighbour's fit and
        # writing the value back at the position gives this state's fit
        self._link = None
        self.provenance = provenance

    def _reroot(self) -> BlockFit:
        """Make the shared engine hold this state's fit, and return the engine."""
        engine = self._engine
        if self._link is None:
            return engine
        path = []
        state = self
        while state._link is not None:
            path.append(state)
            state = state._link[0]
        z = engine.z
        # the last state on the path links to the one the engine holds
        for state in reversed(path):
            neighbour, report, j, value = state._link
            inverse = engine.restore(report)
            neighbour._link = state, inverse, j, z.item(j - 1)
            z[j - 1] = value
            state._link = None
        return engine

    @property
    def engine(self) -> BlockFit:
        """The shared :class:`~seqpava.pava.BlockFit`, holding this state's fit.

        Read-only: it stays this state's fit only until another state of the
        same :func:`init` is read or updated.
        """
        return self._reroot()

    @cached_property
    def blocks(self) -> FittedBlocks:
        """The state's fit as :class:`~seqpava.pava.FittedBlocks`, built when first read."""
        return self._reroot().snapshot()

    @property
    def z(self) -> np.ndarray:
        """A read-only copy of the response vector the state fits."""
        z = self._reroot().z.copy()
        z.flags.writeable = False
        return z

    @property
    def w(self) -> np.ndarray:
        return self._engine.w

    @property
    def m(self) -> int:
        return self._engine.z.size

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
    return _update(state, j_o, new_value, lowers=False)


def update_any(state: SequentialState, j_o: int, new_value: float) -> SequentialState:
    """Set the response at ``j_o`` (1-based) to ``new_value`` and refit.

    An unchanged value returns the state itself. An increase reuses every
    block right of the touched one, a decrease every block left of it; the
    result equals a batch refit of the modified vector.
    """
    return _update(state, j_o, new_value, lowers=True)


def _update(state: SequentialState, j: int, value: float, lowers: bool) -> SequentialState:
    """Set ``z[j]`` of ``state`` to ``value``; only if ``lowers``, the value may be lower."""
    if not (isinstance(j, int) or isinstance(j, np.integer)):
        raise TypeError(f"position {j!r} is not an integer")
    engine = state._reroot()
    m = engine.z.size
    if not 1 <= j <= m:  # refused before z[j-1] is read: j = 0 would read z[-1]
        raise IndexError(f"position {j} is outside 1..{m}")
    value = float(value)
    old = engine.z.item(j - 1)
    if not lowers and value <= old:
        raise ValueError("decrease not supported by abridged path")
    if value == old:
        return state
    report = engine.set(j, value)
    new = SequentialState(engine, "abridged")
    state._link = new, report, j, old
    return new
