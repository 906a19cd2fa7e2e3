import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from seqpava import (
    FittedBlocks,
    WeightedSeries,
    check_fit,
    expand,
    fit_modified,
    fit_standard,
    isotonic_fit,
    iter_prefix_fits,
    minmax_fit,
    pava,
    weighted_mean,
)

from conftest import MIXED_BOUNDS, MIXED_FIT, MIXED_MEANS, MIXED_Z, random_integer_series


class TestWeightedSeries:
    def test_defaults_to_unit_weights(self):
        s = WeightedSeries([3.0, 1.0])
        assert_array_equal(s.w, [1.0, 1.0])
        assert s.m == 2 and len(s) == 2

    def test_copies_input(self):
        z = np.array([1.0, 2.0])
        s = WeightedSeries(z)
        z[0] = 99.0
        assert s.z[0] == 1.0

    @pytest.mark.parametrize(
        "z, w",
        [
            ([], None),
            ([1.0, np.nan], None),
            ([1.0, np.inf], None),
            ([1.0, 2.0], [1.0]),
            ([1.0, 2.0], [1.0, 0.0]),
            ([1.0, 2.0], [1.0, -2.0]),
            ([1.0, 2.0], [1.0, np.nan]),
        ],
    )
    def test_rejects_bad_input(self, z, w):
        with pytest.raises(ValueError):
            WeightedSeries(z, w)

    def test_rejects_weights_with_overflowing_total(self):
        with pytest.raises(ValueError, match="finite total"):
            WeightedSeries([1.0, 2.0], [1e308, 1e308])

    def test_single_element_accepted(self):
        blocks = fit_standard(WeightedSeries([5.0], [7.0]))
        assert_array_equal(blocks.boundaries, [0, 1])
        assert_array_equal(blocks.means, [5.0])


class TestWeightedMean:
    def test_unit_weight_average(self, mixed_series):
        assert weighted_mean(mixed_series, 1, 3) == 2.0

    def test_single_element(self):
        assert weighted_mean(WeightedSeries([5.0], [7.0]), 1, 1) == 5.0

    def test_quarter_block(self):
        s = WeightedSeries([0.0, -1.0, 1.0, 0.5])
        assert weighted_mean(s, 1, 4) == 0.125

    @pytest.mark.parametrize("lo, hi", [(0, 2), (1, 10), (3, 2), (-1, 1)])
    def test_range_errors(self, mixed_series, lo, hi):
        with pytest.raises(IndexError):
            weighted_mean(mixed_series, lo, hi)

    def test_weighted_sum_is_divided_by_the_total(self):
        # scaling the weights by their total first would give 1.6666666666666665
        assert weighted_mean(WeightedSeries([1.0, 2.0], [1.0, 2.0]), 1, 2) == 5 / 3

    def test_huge_values_stay_finite(self):
        # the weighted sum 3e308 overflows, the mean does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = weighted_mean(WeightedSeries([1e308] * 3), 1, 3)
        assert mean == pytest.approx(1e308, rel=1e-15)


class TestBlockTypes:
    def test_partition_access(self):
        blocks = FittedBlocks([0, 3, 7, 9], [2.0, 0.125, 0.0], [3.0, 4.0, 2.0])
        assert blocks.d == 3 and blocks.m == 9
        assert list(blocks.blocks()) == [(1, 3), (4, 7), (8, 9)]
        assert_array_equal(expand(blocks), MIXED_FIT)

    def test_partition_is_the_fit_itself(self, mixed_series):
        blocks = fit_standard(mixed_series)
        assert blocks.partition is blocks

    @pytest.mark.parametrize("bounds", [[0], [1, 2], [0, 3, 3], [0, 4, 2]])
    def test_partition_rejects_bad_boundaries(self, bounds):
        if len(bounds) < 2:
            message = r"^boundaries must hold at least \(0, b_1\)$"
        else:
            message = r"^boundaries must start at 0 and increase strictly$"
        d = len(bounds) - 1
        means, weights = np.arange(d, 0.0, -1.0), np.ones(d)  # valid for d blocks
        with pytest.raises(ValueError, match=message):
            FittedBlocks(bounds, means, weights)

    def test_blocks_reject_non_decreasing_means(self):
        with pytest.raises(ValueError, match="^block means must be strictly decreasing$"):
            FittedBlocks([0, 1, 2], [1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "means, weights", [([np.inf], [1.0]), ([np.nan], [1.0]), ([1.0], [np.inf])]
    )
    def test_blocks_reject_non_finite_values(self, means, weights):
        with pytest.raises(ValueError, match="^block means and weights must be finite$"):
            FittedBlocks([0, 2], means, weights)

    def test_blocks_reject_length_mismatch(self):
        with pytest.raises(ValueError, match="^expected 2 block means and weights, got 1 and 2$"):
            FittedBlocks([0, 1, 2], [1.0], [1.0, 1.0])

    def test_validate_catches_corruption(self, mixed_series):
        good = fit_standard(mixed_series)
        good.validate(mixed_series)
        tampered = FittedBlocks(good.boundaries, good.means + [0.0, 0.5, 0.0], good.weights)
        with pytest.raises(ValueError):
            tampered.validate(mixed_series)

    def test_validate_accepts_huge_values(self):
        series = WeightedSeries([1e308] * 3)
        fit_standard(series).validate(series)

    def test_opposite_huge_means_give_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = FittedBlocks([0, 1, 2], [1e308, -1e308], [1.0, 1.0])
        assert_array_equal(blocks.means, [1e308, -1e308])


class TestFitStandard:
    def test_mixed_vector(self, mixed_series):
        blocks = fit_standard(mixed_series)
        assert_array_equal(blocks.boundaries, MIXED_BOUNDS)
        assert_allclose(blocks.means, MIXED_MEANS, rtol=0, atol=1e-12)
        assert_array_equal(blocks.weights, [3.0, 4.0, 2.0])

    def test_decreasing_input_kept(self):
        blocks = fit_standard(WeightedSeries([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]))
        assert_array_equal(blocks.boundaries, [0, 1, 2, 3])
        assert_array_equal(blocks.means, [3.0, 2.0, 1.0])

    def test_two_point_pool(self):
        # fully pooled pair; expected value frozen from the interval-enumeration oracle
        blocks = fit_standard(WeightedSeries([0.0, 1.0], [1.0, 3.0]))
        assert_array_equal(blocks.boundaries, [0, 2])
        assert_allclose(blocks.means, [0.75], rtol=0, atol=1e-12)

    def test_huge_equal_values_pool_without_overflow(self):
        for z, mean in (([1e308, 1e308], 1e308), ([-1e308, 1e308], 0.0)):
            series = WeightedSeries(z)
            last_prefix = list(iter_prefix_fits(series))[-1]
            for blocks in (fit_standard(series), fit_modified(series), last_prefix):
                assert_array_equal(blocks.boundaries, [0, 2])
                assert_array_equal(blocks.means, [mean])

    def test_prefix_trace(self, mixed_series):
        snapshots = list(iter_prefix_fits(mixed_series))
        assert len(snapshots) == 9
        after7 = snapshots[6]
        assert_array_equal(after7.boundaries, [0, 3, 7])
        assert after7.means[1] == 0.125
        assert_array_equal(snapshots[-1].boundaries, MIXED_BOUNDS)
        # every snapshot is the standard fit of its prefix, bit for bit, on
        # series with ties and weights that make the pooled means round
        rng = np.random.default_rng(16)
        for _ in range(100):
            m = int(rng.integers(1, 21))
            z = rng.integers(-3, 4, size=m) / 3.0
            w = rng.uniform(0.1, 3.0, size=m)
            for j, blocks in enumerate(iter_prefix_fits(WeightedSeries(z, w)), start=1):
                want = fit_standard(WeightedSeries(z[:j], w[:j]))
                assert_array_equal(blocks.boundaries, want.boundaries)
                for got, ref in ((blocks.means, want.means), (blocks.weights, want.weights)):
                    assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()


class TestFitModified:
    def test_run_weight_after_large_weight_is_not_cancelled(self):
        # 1e20 + 2 == 1e20 in float64, so a difference of cumulative weights would give 0
        for m in (3, 20):
            series = WeightedSeries([1.0] + [0.0] * (m - 1), [1e20] + [1.0] * (m - 1))
            blocks = fit_modified(series)
            assert_array_equal(blocks.boundaries, [0, 1, m])
            assert_array_equal(blocks.weights, [1e20, m - 1])

    def test_spans_shorter_than_sixteen_enter_index_by_index(self, pushed):
        # below 16 indices, finding runs with numpy costs more than it saves
        for m, units in ((15, [15]), (16, [1])):
            pushed.clear()
            fit_modified(WeightedSeries(np.zeros(m)))
            assert pushed == units

    def test_two_constant_runs(self):
        blocks = fit_modified(WeightedSeries([1.0, 1.0, 1.0, 0.0, 0.0]))
        assert_array_equal(blocks.boundaries, [0, 3, 5])
        assert_array_equal(blocks.means, [1.0, 0.0])

    def test_full_pool_of_runs(self):
        # expected value frozen from the interval-enumeration oracle
        blocks = fit_modified(WeightedSeries([0.0, 0.0, 1.0, 1.0]))
        assert_array_equal(blocks.boundaries, [0, 4])
        assert_allclose(blocks.means, [0.5], rtol=0, atol=1e-12)

    def test_matches_standard_on_mixed(self, mixed_series):
        a = fit_standard(mixed_series)
        b = fit_modified(mixed_series)
        assert_array_equal(a.boundaries, b.boundaries)
        assert_array_equal(a.means, b.means)
        assert_array_equal(a.weights, b.weights)

    def test_matches_standard_with_long_runs(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            values = rng.integers(-2, 3, size=m).astype(float)
            lengths = rng.integers(1, 5, size=m)
            z = np.repeat(values, lengths)
            w = rng.integers(1, 4, size=z.size).astype(float)
            s = WeightedSeries(z, w)
            a = fit_standard(s)
            b = fit_modified(s)
            assert_array_equal(a.boundaries, b.boundaries)
            assert_allclose(a.means, b.means, rtol=0, atol=1e-12)


class TestExpand:
    def test_three_blocks(self):
        blocks = FittedBlocks([0, 3, 7, 9], [2.0, 0.125, 0.0], [3.0, 4.0, 2.0])
        assert_array_equal(expand(blocks), MIXED_FIT)

    def test_single_block(self):
        blocks = FittedBlocks([0, 1], [5.0], [1.0])
        assert_array_equal(expand(blocks), [5.0])

    def test_two_blocks(self):
        blocks = FittedBlocks([0, 2, 3], [1.0, 0.0], [2.0, 1.0])
        assert_array_equal(expand(blocks), [1.0, 1.0, 0.0])


class TestIsotonic:
    def test_already_isotonic(self):
        assert_array_equal(isotonic_fit(WeightedSeries([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_two_point_pool(self):
        # expected value frozen from the negated interval-enumeration oracle
        assert_allclose(isotonic_fit(WeightedSeries([2.0, 1.0])), [1.5, 1.5], rtol=0, atol=1e-12)

    def test_negated_mixed_vector(self):
        got = isotonic_fit(WeightedSeries(-MIXED_Z))
        assert_allclose(got, -MIXED_FIT, rtol=0, atol=1e-12)

    def test_agrees_with_negated_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = random_integer_series(rng)
            expected = -minmax_fit(WeightedSeries(-s.z, s.w))
            assert_allclose(isotonic_fit(s), expected, rtol=0, atol=1e-9)


class TestFitProperties:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            s = random_integer_series(rng)
            assert_allclose(expand(fit_standard(s)), minmax_fit(s), rtol=0, atol=1e-9)

    def test_standard_and_modified_identical(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            s = random_integer_series(rng)
            a = fit_standard(s)
            b = fit_modified(s)
            assert_array_equal(a.boundaries, b.boundaries)
            assert_allclose(a.means, b.means, rtol=0, atol=1e-12)

    def test_fits_pass_check_fit(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            s = random_integer_series(rng)
            assert check_fit(expand(fit_standard(s)), s).valid

    def test_idempotent(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            s = random_integer_series(rng)
            once = expand(fit_standard(s))
            twice = expand(fit_standard(WeightedSeries(once, s.w)))
            assert_allclose(twice, once, rtol=0, atol=1e-12)

    def test_order_preservation(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            s = random_integer_series(rng)
            bump = rng.integers(0, 3, size=s.m).astype(float)
            bigger = WeightedSeries(s.z + bump, s.w)
            low = expand(fit_standard(s))
            high = expand(fit_standard(bigger))
            assert (low <= high + 1e-12).all()

    def test_mean_preservation(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            s = random_integer_series(rng)
            fit = expand(fit_standard(s))
            got = float(np.dot(s.w, fit) / s.w.sum())
            want = float(np.dot(s.w, s.z) / s.w.sum())
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_block_stats_validate(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            s = random_integer_series(rng)
            fit_standard(s).validate(s)
            fit_modified(s).validate(s)


@st.composite
def small_series(draw):
    z = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=9))
    w = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(z), max_size=len(z)))
    return WeightedSeries(np.array(z, dtype=float), np.array(w, dtype=float))


@settings(max_examples=200, deadline=None)
@given(small_series())
def test_fit_is_antitonic_minimizer(series):
    fit = expand(fit_standard(series))
    assert (np.diff(fit) <= 0).all()
    assert_allclose(fit, minmax_fit(series), rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(small_series())
def test_fit_projection_is_idempotent(series):
    fit = expand(fit_standard(series))
    again = expand(fit_standard(WeightedSeries(fit, series.w)))
    assert_allclose(again, fit, rtol=0, atol=1e-12)


def _absorb_reference(bounds, means, weights, edges, values, run_weights):
    """The pooling kernel as it was before it held the open block in locals."""
    for edge, mean, weight in zip(edges, values, run_weights):
        while means and means[-1] <= mean:
            mp = means.pop()
            wp = weights.pop()
            del bounds[-1]
            total = wp + weight
            diff = mean - mp
            if diff - diff == 0.0:
                mean = mp + diff * (weight / total)
            else:  # the means have opposite signs and their difference overflowed
                mean = mp * (wp / total) + mean * (weight / total)
            weight = total
        bounds.append(edge)
        means.append(mean)
        weights.append(weight)


# small integers tie often; values near the float limit under weights near
# 1e300 make differences of means overflow
_KERNEL_MEANS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([1.7e308, -1.7e308, 1.6e308, -1.5e308]),
    st.floats(-1e3, 1e3),
)
_KERNEL_WEIGHTS = st.sampled_from([1.0, 2.0, 0.5, 3.0, 1e300, 2e300])


@st.composite
def _kernel_calls(draw):
    """Pre-filled lists and one push onto them, in one of the forms the engine passes."""
    size = draw(st.integers(0, 4))
    bounds = [0] + sorted(draw(st.sets(st.integers(1, 50), min_size=size, max_size=size)))
    means = draw(st.lists(_KERNEL_MEANS, min_size=size, max_size=size))
    weights = draw(st.lists(_KERNEL_WEIGHTS, min_size=size, max_size=size))
    count = draw(st.integers(0, 12))
    values = draw(st.lists(_KERNEL_MEANS, min_size=count, max_size=count))
    run_weights = draw(st.lists(_KERNEL_WEIGHTS, min_size=count, max_size=count))
    edges = range(bounds[-1] + 1, bounds[-1] + count + 1)
    form = draw(st.sampled_from(["lists", "tuples", "views"]))
    if form == "views":  # as refit(by_runs=False) passes them
        push = edges, memoryview(np.array(values)), memoryview(np.array(run_weights))
    else:
        push = tuple(map(list if form == "lists" else tuple, (edges, values, run_weights)))
    return (bounds, means, weights), push


def _typed(lists):
    return [[(type(x), float.hex(float(x))) for x in entries] for entries in lists]


@settings(max_examples=400, deadline=None)
@given(_kernel_calls())
@example((([0, 1], [-1.7e308], [1e300]), ([2, 3], [1.7e308, -1.0], [2e300, 1.0])))
@example((([0], [], []), ((1, 2), (-1.7e308, 1.7e308), (1e300, 1.0))))
def test_pooling_kernel_matches_the_append_and_pop_loop(call):
    lists, push = call
    want = [entries[:] for entries in lists]
    _absorb_reference(*want, *push)
    got = [entries[:] for entries in lists]
    pava._absorb(*got, *push)
    assert _typed(got) == _typed(want)
