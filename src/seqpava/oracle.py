"""Brute-force reference fit and validity certificate for monotone fits.

:func:`minmax_fit` evaluates the closed min-max formula for the
non-increasing least-squares fit directly: component j equals the minimum
over interval starts ``a <= j`` of the maximum over interval ends ``b >= j``
of the weighted mean over ``a..b``. It enumerates every interval and exists
purely as ground truth for testing the fast solvers; it is O(m^3) on
purpose and meant for test-scale inputs.

:func:`check_fit` certifies a candidate fit through level-set conditions:
on each constant block of the fit, every suffix mean must not fall below
the fitted value, every prefix mean must not exceed it, and the full block
mean must equal it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pava import WeightedSeries

__all__ = ["FitCheck", "minmax_fit", "check_fit"]

_TOL = 1e-9


@dataclass(frozen=True)
class FitCheck:
    """Outcome of the validity conditions; ``reason`` names the first failure."""

    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def _prefix_sums(series: WeightedSeries) -> tuple[list, list]:
    sw = [0.0]
    swz = [0.0]
    for zj, wj in zip(series.z.tolist(), series.w.tolist()):
        sw.append(sw[-1] + wj)
        swz.append(swz[-1] + wj * zj)
    return sw, swz


def minmax_fit(series: WeightedSeries) -> np.ndarray:
    """Reference non-increasing fit by exhaustive interval enumeration.

    The dual form (max over ends of the min over starts) is evaluated as
    well and both must agree to within 1e-9; disagreement would mean the
    enumeration itself is broken, so it raises instead of returning.
    """
    m = series.m
    sw, swz = _prefix_sums(series)

    def mean(a: int, b: int) -> float:
        return (swz[b] - swz[a - 1]) / (sw[b] - sw[a - 1])

    fit = np.empty(m)
    for j in range(1, m + 1):
        starts, ends = range(1, j + 1), range(j, m + 1)
        lo = min(max(mean(a, b) for b in ends) for a in starts)
        hi = max(min(mean(a, b) for a in starts) for b in ends)
        if abs(lo - hi) > _TOL:
            raise RuntimeError(
                f"min-max and max-min forms disagree at position {j}: {lo} vs {hi}"
            )
        fit[j - 1] = lo
    return fit


def check_fit(fit, series: WeightedSeries) -> FitCheck:
    """Certify that ``fit`` is the non-increasing least-squares fit of ``series``.

    Checks, per constant block B of the fit at level xi, with tol = 1e-9:
    every suffix of B has weighted mean >= xi - tol, every prefix of B has
    weighted mean <= xi + tol, and the block mean equals xi within tol. A fit
    that is not non-increasing is flagged before any level check.
    """
    f = np.asarray(fit, dtype=float)
    if f.ndim != 1 or f.size != series.m:
        raise ValueError(f"fit has length {f.size}, series has length {series.m}")
    rising = np.flatnonzero(f[:-1] < f[1:])
    if rising.size:
        j = int(rising[0]) + 1
        return FitCheck(False, f"fit increases between positions {j} and {j + 1}")

    sw, swz = _prefix_sums(series)

    def mean(a: int, b: int) -> float:
        return (swz[b] - swz[a - 1]) / (sw[b] - sw[a - 1])

    edges = (np.flatnonzero(f[:-1] != f[1:]) + 1).tolist()
    starts = [0] + edges
    ends = edges + [series.m]
    for a0, b in zip(starts, ends):
        a = a0 + 1
        xi = float(f[a - 1])
        for i in range(a, b + 1):
            if mean(i, b) < xi - _TOL:
                return FitCheck(
                    False, f"suffix {i}..{b} has mean {mean(i, b)} below level {xi}"
                )
        for i in range(a, b + 1):
            if mean(a, i) > xi + _TOL:
                return FitCheck(
                    False, f"prefix {a}..{i} has mean {mean(a, i)} above level {xi}"
                )
        if abs(mean(a, b) - xi) > _TOL:
            return FitCheck(
                False, f"block {a}..{b} has mean {mean(a, b)}, level is {xi}"
            )
    return FitCheck(True)
