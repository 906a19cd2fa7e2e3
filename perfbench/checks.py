"""Checks of the program's outputs against the independent references.

Each function returns ``None`` when the output is correct and otherwise a
one-line description of the first problem found. Output files are parsed
here with numpy and json, not with seqpava's readers.
"""
from __future__ import annotations

import json

import numpy as np

from workloads import BETAS, Workload, reference_fit

TOL = 1e-12


def order_problem(cdf: np.ndarray) -> str | None:
    """The stochastic-order properties of an (m, k) estimate, checked exactly."""
    if (cdf < 0.0).any() or (cdf > 1.0).any():
        return "entries outside [0, 1]"
    if (np.diff(cdf, axis=1) < 0.0).any():
        return "a row decreases in the threshold"
    if (np.diff(cdf, axis=0) > 0.0).any():
        return "a column increases in the covariate"
    if (cdf[:, -1] != 1.0).any():
        return "last column is not 1"
    return None


def estimate_problem(wl: Workload, covariates, thresholds, cdf) -> str | None:
    """An estimate must sit on the data's grid and match scipy column by column."""
    cdf = np.asarray(cdf)
    if cdf.shape != (wl.m, wl.k):
        return f"estimate has shape {cdf.shape}, expected {(wl.m, wl.k)}"
    if not np.array_equal(covariates, wl.xs):
        return "covariates are not the sorted distinct x"
    if not np.array_equal(thresholds, wl.ys):
        return "thresholds are not the sorted distinct y"
    gap = float(np.abs(cdf - wl.ref_cdf.T).max())
    if not gap <= TOL:
        return f"estimate differs from scipy by {gap:.3g}"
    return order_problem(cdf)


def read_estimate_csv(path: str):
    """(covariates, thresholds, cdf) from an estimate CSV written by `seqpava idr`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[0] != "y":
        raise ValueError(f"estimate header starts with {header[0]!r}")
    return np.array(header[1:], dtype=float), body[:, 0], body[:, 1:].T


def estimate_csv_problem(wl: Workload, path: str, library_cdf) -> str | None:
    """The CLI estimate must pass the estimate checks and equal the library's."""
    covariates, thresholds, cdf = read_estimate_csv(path)
    problem = estimate_problem(wl, covariates, thresholds, cdf)
    if problem is None and library_cdf is not None and not np.array_equal(cdf, library_cdf):
        problem = "CLI estimate differs from the library estimate"
    return problem


def quantiles_problem(wl: Workload, path: str) -> str | None:
    """Each quantile q at level b must have ref CDF(q) >= b and ref CDF(previous threshold) < b."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    betas = np.array(header[1:], dtype=float)
    if header[0] != "x" or tuple(betas.tolist()) != BETAS:
        return f"unexpected quantiles header {header!r}"
    if body.shape != (wl.m, betas.size + 1):
        return f"quantiles table has shape {body.shape}"
    if not np.array_equal(body[:, 0], wl.xs):
        return "quantile rows are not the sorted distinct x"
    q = body[:, 1:]
    t = np.searchsorted(wl.ys, q)
    on_grid = (t < wl.k) & (wl.ys[np.minimum(t, wl.k - 1)] == q)
    if not on_grid.all():
        return "a quantile is not one of the thresholds"
    rows = np.arange(wl.m)[:, None]
    at_q = wl.ref_cdf[t, rows]
    before_q = np.where(t > 0, wl.ref_cdf[np.maximum(t - 1, 0), rows], -np.inf)
    if not (at_q >= betas - TOL).all():
        return "ref CDF at a quantile is below its level"
    if not (before_q < betas + TOL).all():
        return "ref CDF already reaches the level before a quantile"
    return None


def fit_problem(fitted, z: np.ndarray, w: np.ndarray) -> str | None:
    """A fitted vector must match scipy's fit of the vector it claims to fit."""
    gap = float(np.abs(np.asarray(fitted) - reference_fit(z, w)).max())
    if not gap <= TOL:
        return f"fit differs from scipy by {gap:.3g}"
    return None


def fit_json_problem(wl: Workload, path: str, z_final: np.ndarray) -> str | None:
    """`seqpava fit` output: blocks consistent with the fit, and the fit matches scipy."""
    with open(path) as fh:
        payload = json.load(fh)
    bounds = np.array(payload["boundaries"])
    means = np.array(payload["means"], dtype=float)
    fitted = np.array(payload["fit"], dtype=float)
    if fitted.size != wl.m or bounds[0] != 0 or bounds[-1] != wl.m:
        return "fit output does not cover the series"
    if not (np.diff(means) < 0).all():
        return "block means do not decrease strictly"
    if not np.array_equal(np.repeat(means, np.diff(bounds)), fitted):
        return "fit is not the expansion of its blocks"
    return fit_problem(fitted, z_final, wl.w)

