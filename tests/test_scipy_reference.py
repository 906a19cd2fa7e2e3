"""Differential tests against scipy's PAVA at sizes the brute-force oracle cannot reach."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import isotonic_regression

from seqpava import BlockFit, WeightedSeries, expand, fit_family, fit_modified, fit_standard, group, pava
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


def _bits(fit, keep):
    """The blocks of ``fit`` whose right edge satisfies ``keep``, as exact tuples."""
    return [
        (edge, mean, weight)
        for edge, mean, weight in zip(fit.bounds[1:], fit.means, fit.weights)
        if keep(edge)
    ]


@pytest.mark.parametrize("direction", ["raise", "lower", "mixed"])
def test_set_many_matches_scipy_at_large_m(direction):
    # a noisy falling trend in halves: runs, pooling and thousands of blocks
    m = 100_000
    rng = np.random.default_rng(["raise", "lower", "mixed"].index(direction))
    z = np.round(rng.normal(0.0, 6.0, m) - np.linspace(0.0, 400.0, m)) / 2.0
    w = rng.integers(1, 5, m).astype(float)
    fit = BlockFit(WeightedSeries(z, w))
    before = fit.copy()
    assert len(fit.means) > 500
    positions = np.sort(rng.choice(np.arange(m // 20, m - m // 20), m // 20, replace=False)) + 1
    steps = rng.integers(1, 40, positions.size) / 2.0
    if direction == "lower":
        steps = -steps
    elif direction == "mixed":
        steps *= rng.choice([-1.0, 1.0], positions.size)
    if direction != "raise":
        steps[-1] = -400.0  # the span then pools into old right blocks
    fit.set_many(positions.tolist(), (z[positions - 1] + steps).tolist())

    new_z = z.copy()
    new_z[positions - 1] += steps
    assert_array_equal(fit.z, new_z)
    want = scipy_fit(new_z, w)
    assert_allclose(expand(fit.snapshot()), want, rtol=0, atol=1e-12 * max(1.0, np.abs(new_z).max()))
    # the span runs from the start of the first position's block to the end of the last's
    a = max(edge for edge in before.bounds if edge < positions[0])
    b = min(edge for edge in before.bounds if edge >= positions[-1])
    assert a > 0 and b < m
    # blocks left of the span are never reworked, only pooled into from the right
    new_left = _bits(fit, lambda edge: edge <= a)
    assert len(new_left) > 10
    assert new_left == _bits(before, lambda edge: edge <= a)[: len(new_left)]
    old_right = _bits(before, lambda edge: edge > b)
    assert (_bits(fit, lambda edge: edge > b) == old_right) == (direction == "raise")


@pytest.mark.parametrize("direction", ["raise", "lower", "mixed"])
def test_numpy_batches_match_scipy_after_every_batch(monkeypatch, direction):
    # numpy batches of 100 changes, checked in bulk: the long stretches between
    # the first and the last change enter by non-decreasing runs found with numpy
    m = 10_000
    rng = np.random.default_rng(["raise", "lower", "mixed"].index(direction) + 10)
    z = np.round(rng.normal(0.0, 6.0, m) - np.linspace(0.0, 400.0, m)) / 2.0
    w = rng.integers(1, 5, m).astype(float)
    fit = BlockFit(WeightedSeries(z, w))
    splits = []
    runs = pava._runs

    def recorded(z, w, lo, hi, split=np.not_equal):
        splits.append((hi - lo, split))
        return runs(z, w, lo, hi, split)

    monkeypatch.setattr(pava, "_runs", recorded)
    for _ in range(6):
        positions = np.sort(rng.choice(m, 100, replace=False)) + 1
        steps = rng.integers(1, 40, positions.size) / 2.0
        if direction == "lower":
            steps = -steps
        elif direction == "mixed":
            steps *= rng.choice([-1.0, 1.0], positions.size)
        z[positions - 1] += steps
        fit.set_many(positions, z[positions - 1])
        assert_array_equal(fit.z, z)
        want = scipy_fit(z, w)
        assert_allclose(expand(fit.snapshot()), want, rtol=0, atol=1e-12 * np.abs(z).max())
    assert sum(size >= 16 and split is np.less for size, split in splits) == 6


def test_one_block_updates_at_large_m_rework_only_their_blocks(monkeypatch):
    # strictly decreasing: every index is its own block of 1e5
    m = 100_000
    z = -np.arange(m, dtype=float)
    fit = BlockFit(WeightedSeries(z))
    pushes = []
    absorb = pava._absorb
    monkeypatch.setattr(pava, "_absorb", lambda *args: pushes.append(args[3]) or absorb(*args))
    tracemalloc.start()
    raised = fit.set(50_000, z[49_999] + 2.5)  # pools with block 49_999
    lowered = fit.set(60_000, z[59_999] - 2.5)  # pools with the block of 60_001
    alone = fit.set(70_000, z[69_999] + 0.5)  # pools with nothing
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert raised == (49_999, 1, [49_999, 50_000], [-49_998.0, -49_999.0], [1.0, 1.0])
    assert lowered == (59_999, 1, [60_000, 60_001], [-59_999.0, -60_000.0], [1.0, 1.0])
    assert alone == (69_998, 1, [70_000], [-69_999.0], [1.0])
    assert [fit.means[k] for k in (49_998, 59_998, 69_997)] == [-49_997.25, -60_000.75, -69_998.5]
    assert len(pushes) == 4  # each update's value, and one old right block
    assert peak < 50_000  # bytes: nothing the size of the fit is copied
    z[[49_999, 59_999, 69_999]] += 2.5, -2.5, 0.5
    assert_allclose(expand(fit.snapshot()), scipy_fit(z, np.ones(m)), rtol=0, atol=1e-12 * m)


def test_sequential_chain_at_large_m_copies_no_engine(monkeypatch):
    m = 100_000
    z = -np.arange(m, dtype=float)
    copies = []
    copy = BlockFit.copy
    monkeypatch.setattr(BlockFit, "copy", lambda self: copies.append(self) or copy(self))
    rng = np.random.default_rng(14)
    state = init(WeightedSeries(z))
    z = z.copy()
    for step in range(50):
        j = int(rng.integers(1, m + 1))
        if step % 2:
            z[j - 1] += 2.5
            state = update_increase(state, j, z[j - 1])
        else:
            z[j - 1] -= 2.5
            state = update_any(state, j, z[j - 1])
    assert copies == []
    assert len(state.blocks.means) > m - 100
    assert_allclose(state.fit(), scipy_fit(z, np.ones(m)), rtol=0, atol=1e-12 * m)


def _large_inputs():
    m = 100_000
    rng = np.random.default_rng(11)
    steps = np.repeat(rng.integers(0, 21, m // 50) / 20.0, 50)
    return {
        "0/1 plateaus": (np.repeat(rng.integers(0, 2, m // 100), 100).astype(float), None),
        "graded steps": (steps, rng.integers(1, 5, m).astype(float)),
        "strictly decreasing": (-np.arange(m, dtype=float), None),
        "strictly increasing": (np.arange(m, dtype=float), None),
        "log-uniform weights": (rng.normal(0.0, 1.0, m), 10.0 ** rng.uniform(-6.0, 6.0, m)),
    }


@pytest.mark.parametrize("solver", [fit_standard, fit_modified])
@pytest.mark.parametrize("name", list(_large_inputs()))
def test_batch_fits_match_scipy_at_large_m(solver, name):
    z, w = _large_inputs()[name]
    series = WeightedSeries(z, w)
    blocks = solver(series)
    want = scipy_fit(series.z, series.w)
    assert_allclose(expand(blocks), want, rtol=0, atol=1e-12 * max(1.0, np.abs(z).max()))
    if name == "strictly decreasing":
        assert blocks.d == z.size
    if name == "strictly increasing":
        assert blocks.d == 1


@pytest.mark.parametrize("solver", [fit_standard, fit_modified])
def test_batch_fits_of_huge_values_match_rescaled_scipy(solver):
    # scaling by a power of two is exact, and scipy's direct fit overflows here
    rng = np.random.default_rng(12)
    z = np.round(rng.uniform(-1.0, 1.0, 100_000), 2) * 1.7e307
    w = rng.integers(1, 5, z.size).astype(float)
    blocks = solver(WeightedSeries(z, w))
    fitted = expand(blocks)
    assert np.isfinite(fitted).all()
    want = scipy_fit(z * 2.0**-1000, w) * 2.0**1000
    assert_allclose(fitted, want, rtol=0, atol=1e-12 * np.abs(z).max())


def _extreme_weight_inputs():
    # weights spread over 600 decades; a falling trend keeps many blocks, noise pools some
    m = 20_000
    rng = np.random.default_rng(13)
    z = np.round(rng.normal(0.0, 4.0, m) - np.linspace(0.0, 4000.0, m), 1)
    w = 10.0 ** rng.uniform(-300.0, 300.0, m)
    w[:2] = 1e-300, 1e300
    return z, w, rng


@pytest.mark.parametrize("solver", [fit_standard, fit_modified])
def test_batch_fits_with_extreme_weights_match_scipy(solver):
    z, w, _ = _extreme_weight_inputs()
    blocks = solver(WeightedSeries(z, w))
    assert 100 < blocks.d < z.size
    fitted = expand(blocks)
    assert np.isfinite(fitted).all()
    assert_allclose(fitted, scipy_fit(z, w), rtol=0, atol=1e-12 * np.abs(z).max())


def test_set_many_with_extreme_weights_matches_scipy_after_every_batch():
    z, w, rng = _extreme_weight_inputs()
    fit = BlockFit(WeightedSeries(z, w))
    for _ in range(5):
        positions = np.sort(rng.choice(np.arange(1, z.size + 1), 200, replace=False))
        values = z[positions - 1] + rng.normal(0.0, 50.0, positions.size).round(1)
        fit.set_many(positions.tolist(), values.tolist())
        z = z.copy()
        z[positions - 1] = values
        assert_array_equal(fit.z, z)
        fitted = expand(fit.snapshot())
        assert np.isfinite(fitted).all()
        assert_allclose(fitted, scipy_fit(z, w), rtol=0, atol=1e-12 * np.abs(z).max())
