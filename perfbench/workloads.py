"""The workloads: generated inputs, the files the CLI reads, and references.

Inputs depend only on the workload name, its size and the seed. The
references the checks compare against are computed from the raw
observations with numpy and scipy's PAVA (``scipy.optimize.
isotonic_regression``), never through seqpava.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import isotonic_regression

from seqpava.bench import ExperimentConfig, generate_dataset


@dataclass(frozen=True)
class Spec:
    """Size of one workload and the number of calls each round makes."""

    n: int
    stream: int  # sweep steps replayed by the sequential calls and by `seqpava fit`
    family_calls: int
    standard_calls: int
    modified_calls: int
    groups: int = 0  # tied only: number of distinct integer covariates


# Calls per round are sized so that every library metric gets a few tenths
# of a second of calls in each round (see README.md for the measured costs).
SPECS = {
    "tied": Spec(
        n=100_000, stream=2000, family_calls=1, standard_calls=1000, modified_calls=1000, groups=500
    ),
    "graded": Spec(n=4000, stream=1000, family_calls=1, standard_calls=150, modified_calls=700),
}

# The same workloads at a size where a whole round takes well under a second.
TINY = {
    "tied": Spec(n=400, stream=50, family_calls=1, standard_calls=2, modified_calls=2, groups=20),
    "graded": Spec(n=80, stream=20, family_calls=1, standard_calls=2, modified_calls=2),
}

# The paper's gamma design at n=2000 with a fixed seed, on which `seqpava idr`
# exits 1 because one estimate row decreases by one ulp (see README.md). Every
# round runs it once, so that fault shows as a failed operation in every run.
KNOWN_FAULT = Spec(n=2000, stream=0, family_calls=0, standard_calls=0, modified_calls=0)
KNOWN_FAULT_SEED = 3

SETUP_CALLS = 2  # fresh-interpreter set-ups per round
BETAS = (0.1, 0.25, 0.5, 0.75, 0.9)  # the `seqpava quantiles` default levels
GRADE_CUTS = np.linspace(0.5, 9.5, 19)  # latent gamma response -> grades 1..20
_RNG_TAGS = {"tied": 1, "graded": 2}


def _shape(x):
    return np.sqrt(x)


def _scale(x):
    t = x - 5.0
    return 1.0 + t / np.sqrt(2.0 + t * t)


def make_pairs(name: str, spec: Spec, seed: int) -> np.ndarray:
    """The workload's observations as an (n, 2) array of (x, y) rows.

    gamma is the paper's design through the program's own generator. tied
    and graded draw from the same response model with numpy and grade the
    responses; tied also puts the covariates on an integer grid.
    """
    if name == "gamma":
        return generate_dataset(ExperimentConfig(n=spec.n, replications=1, seed=seed), 0)
    rng = np.random.default_rng([seed, _RNG_TAGS[name]])
    if name == "tied":
        x = rng.integers(1, spec.groups + 1, spec.n).astype(float)
        u = x * (10.0 / spec.groups)
    else:
        x = u = rng.uniform(0.0, 10.0, spec.n)
    latent = rng.gamma(_shape(u), _scale(u))
    y = 1.0 + np.searchsorted(GRADE_CUTS, latent).astype(float)
    return np.column_stack((x, y))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines))


@dataclass
class Workload:
    """Generated inputs of one run plus the independent references."""

    name: str
    spec: Spec
    seed: int
    work: Path
    pairs: np.ndarray
    xs: np.ndarray  # sorted distinct covariates
    ys: np.ndarray  # sorted distinct responses (the thresholds)
    w: np.ndarray  # observations per covariate
    ref_cdf: np.ndarray  # (k, m): row t is the scipy fit of z(ys[t])
    z0: np.ndarray  # indicator averages at the last threshold below the median response
    stream: list  # the next sweep steps as (1-based index, new value)
    olds: list  # the value each stream step replaces

    @property
    def m(self) -> int:
        return self.xs.size

    @property
    def k(self) -> int:
        return self.ys.size

    def path(self, name: str) -> str:
        return str(self.work / name)


def reference_fit(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted antitonic least-squares fit by scipy's PAVA."""
    return isotonic_regression(z, weights=w, increasing=False).x


def build(name: str, spec: Spec, seed: int, work: Path) -> Workload:
    """Generate the inputs, write the files the program reads, and compute references."""
    pairs = make_pairs(name, spec, seed)
    x, y = pairs[:, 0], pairs[:, 1]
    xs, gi = np.unique(x, return_inverse=True)
    ys, ti = np.unique(y, return_inverse=True)
    w = np.bincount(gi).astype(float)

    # ref_cdf[t, j]: share of group j at or below ys[t], then fitted column by column
    ref_cdf = np.zeros((ys.size, xs.size))
    np.add.at(ref_cdf, (ti, gi), 1.0)
    np.cumsum(ref_cdf, axis=0, out=ref_cdf)
    ref_cdf /= w
    for t in range(ys.size):
        ref_cdf[t] = reference_fit(ref_cdf[t], w)

    # the sweep: responses ascending, ties by covariate. z0 is its state at a
    # fixed threshold, the last one below the median response, so that no tie
    # run is cut and the series' make-up varies little from seed to seed.
    steps = gi[np.lexsort((gi, y))]
    start = int(np.count_nonzero(y < np.sort(y)[spec.n // 2]))
    counts = np.bincount(steps[:start], minlength=xs.size).astype(float)
    z0 = counts / w
    z = z0.copy()
    stream, olds = [], []
    for j in steps[start : start + spec.stream].tolist():
        counts[j] += 1.0
        olds.append(float(z[j]))
        z[j] = counts[j] / w[j]
        stream.append((j + 1, float(z[j])))

    work.mkdir(parents=True, exist_ok=True)
    _write_lines(work / "obs.csv", ["x,y"] + [f"{_fmt(a)},{_fmt(b)}" for a, b in pairs])
    _write_lines(work / "series.txt", [_fmt(v) for v in z0])
    _write_lines(work / "weights.txt", [_fmt(v) for v in w])
    _write_lines(work / "changes.csv", [f"{j},{_fmt(v)}" for j, v in stream])
    np.save(work / "pairs.npy", pairs)
    np.save(work / "z.npy", z0)
    np.save(work / "w.npy", w)
    return Workload(name, spec, seed, work, pairs, xs, ys, w, ref_cdf, z0, stream, olds)
