"""Differential tests against scipy's PAVA at sizes the brute-force oracle cannot reach."""
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import isotonic_regression

from seqpava import WeightedSeries, expand, fit_family, group
from seqpava.sequential import init, update_increase


def scipy_fit(z, w):
    return isotonic_regression(z, weights=w, increasing=False).x


def test_graded_family_matches_scipy_column_by_column():
    # continuous covariates and 20 response grades: sweep updates land inside long blocks
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 10.0, 4000)
    latent = rng.gamma(np.sqrt(x) + 0.5, 1.0)
    y = 1.0 + np.searchsorted(np.linspace(0.5, 9.5, 19), latent)
    obs = group(np.column_stack((x, y)))
    est = fit_family(obs, "abridged")
    assert_array_equal(est.cdf, fit_family(obs, "modified").cdf)
    assert est.k == 20
    for t, threshold in enumerate(est.thresholds):
        counts = np.bincount(obs.group_index[obs.y <= threshold], minlength=obs.m)
        want = scipy_fit(counts / obs.weights, obs.weights)
        assert_allclose(est.cdf[:, t], want, rtol=0, atol=1e-12)


def touched_block_series(fractional: bool, length: int):
    """A series whose middle block spans ``length`` indices, with blocks on both sides.

    The middle block is one non-decreasing stretch, so it is a single block of
    the fit; it sits below a block of ones and above two lower blocks. 0/1
    values, or fractions c/w with integer weights w in 1..4 and c < w.
    """
    rng = np.random.default_rng(length + fractional)
    if fractional:
        w_mid = rng.integers(1, 5, length).astype(float)
        mid = np.sort(rng.integers(0, 4, length) % w_mid / w_mid)
        tail = np.concatenate((mid[: length // 2] - 1.0, np.full(7, -2.0)))
        w = np.concatenate((np.ones(5), w_mid, rng.integers(1, 5, tail.size).astype(float)))
    else:
        ones = length // 4
        mid = np.concatenate((np.zeros(length - ones), np.ones(ones)))
        tail = np.concatenate((np.zeros(8), np.ones(1), np.zeros(20)))  # blocks 1/9, then 0
        w = None
    z = np.concatenate((np.ones(5), mid, tail))
    return WeightedSeries(z, w), 5 + length


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("length, remainder", [(60, 15), (60, 16), (60, 17), (5000, 3000)])
def test_update_increase_matches_scipy(fractional, length, remainder):
    series, b_end = touched_block_series(fractional, length)
    state = init(series)
    bounds = state.blocks.partition.boundaries
    assert b_end in bounds and 5 in bounds and bounds.size >= 5
    assert not ((bounds > 5) & (bounds < b_end)).any()
    j0 = b_end - remainder
    assert state.z[j0 - 1] < 1.0
    new = update_increase(state, j0, 1.0)

    assert_allclose(new.fit(), scipy_fit(new.z, new.w), rtol=0, atol=1e-12)
    # everything right of the touched block is reused bit for bit
    assert_array_equal(new.fit()[b_end:], expand(state.blocks)[b_end:])
    old_right = bounds > b_end
    new_bounds = new.blocks.partition.boundaries
    new_right = new_bounds > b_end
    assert_array_equal(new_bounds[new_right], bounds[old_right])
    assert_array_equal(new.blocks.means[new_right[1:]], state.blocks.means[old_right[1:]])
    assert_array_equal(new.blocks.weights[new_right[1:]], state.blocks.weights[old_right[1:]])
