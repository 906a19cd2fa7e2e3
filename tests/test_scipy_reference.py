"""Differential tests against scipy's PAVA at sizes the brute-force oracle cannot reach."""
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import isotonic_regression

from seqpava import WeightedSeries, expand, fit_family, group
from seqpava.sequential import init, update_any, update_increase


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


def test_tied_family_matches_scipy_column_by_column():
    # 200 integer covariates with ~100 observations each: every sweep cell
    # moves one group by a whole run of tied observations
    rng = np.random.default_rng(6)
    x = rng.integers(1, 201, 20_000).astype(float)
    latent = rng.gamma(np.sqrt(x / 20.0) + 0.5, 1.0)
    y = 1.0 + np.searchsorted(np.linspace(0.5, 9.5, 19), latent)
    obs = group(np.column_stack((x, y)))
    assert obs.m == 200
    est = fit_family(obs, "abridged")
    for variant in ("standard", "modified"):
        assert_array_equal(fit_family(obs, variant).cdf, est.cdf)
    assert est.k == 20
    pooled = 0
    for t, threshold in enumerate(est.thresholds):
        counts = np.bincount(obs.group_index[obs.y <= threshold], minlength=obs.m)
        z = counts / obs.weights
        want = scipy_fit(z, obs.weights)
        assert_allclose(est.cdf[:, t], want, rtol=0, atol=1e-12)
        pooled += int((want != z).sum())
    assert pooled > 0


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


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("length, head", [(60, 15), (60, 16), (60, 17), (66_000, 40_000)])
@pytest.mark.parametrize("pool_right", [False, True])
def test_update_decrease_matches_scipy(fractional, length, head, pool_right):
    # the mirror of the increase: a+1..j0-1 (``head`` indices) goes back in by
    # runs, the tail j0..b as one unit, which pools rightwards when the new
    # value is low enough
    series, b_end = touched_block_series(fractional, length)
    state = init(series)
    bounds = state.blocks.partition.boundaries
    assert b_end in bounds and 5 in bounds and bounds.size >= 5
    assert not ((bounds > 5) & (bounds < b_end)).any()
    j0 = 5 + head + 1
    value = -8.0 * (b_end - j0 + 1) if pool_right else -1.5
    assert state.z[j0 - 1] > value
    new = update_any(state, j0, value)

    assert_allclose(new.fit(), scipy_fit(new.z, new.w), rtol=0, atol=1e-12)
    # everything left of the touched block is reused bit for bit
    assert_array_equal(new.fit()[:5], expand(state.blocks)[:5])
    old_left = bounds <= 5
    new_bounds = new.blocks.partition.boundaries
    new_left = new_bounds <= 5
    assert_array_equal(new_bounds[new_left], bounds[old_left])
    assert_array_equal(new.blocks.means[new_left[1:]], state.blocks.means[old_left[1:]])
    assert_array_equal(new.blocks.weights[new_left[1:]], state.blocks.weights[old_left[1:]])
    assert (b_end in new_bounds) != pool_right
