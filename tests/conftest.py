import numpy as np
import pytest

from seqpava import WeightedSeries, pava

# nine-point vector whose fit pools into three blocks with means (2, 1/8, 0)
MIXED_Z = np.array([1.0, 3.0, 2.0, 0.0, -1.0, 1.0, 0.5, -1.0, 1.0])
MIXED_BOUNDS = np.array([0, 3, 7, 9])
MIXED_MEANS = np.array([2.0, 0.125, 0.0])
MIXED_FIT = np.repeat(MIXED_MEANS, np.diff(MIXED_BOUNDS))


@pytest.fixture
def mixed_series() -> WeightedSeries:
    return WeightedSeries(MIXED_Z)


def random_integer_series(rng: np.random.Generator, max_m: int = 8) -> WeightedSeries:
    """Small random series: integer responses, weights from {1, 2, 3}."""
    m = int(rng.integers(1, max_m + 1))
    z = rng.integers(-3, 4, size=m).astype(float)
    w = rng.integers(1, 4, size=m).astype(float)
    return WeightedSeries(z, w)


@pytest.fixture
def pushed(monkeypatch) -> list:
    """The number of units in each push through the pooling kernel, from now on."""
    counts = []
    absorb = pava._absorb

    def counted(bounds, means, weights, edges, values, run_weights):
        counts.append(len(values))
        absorb(bounds, means, weights, edges, values, run_weights)

    monkeypatch.setattr(pava, "_absorb", counted)
    return counts
