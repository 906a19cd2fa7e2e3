import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqpava import WeightedSeries, expand, fit_modified, fit_standard, minmax_fit
from seqpava.sequential import init, update_any, update_increase

from conftest import MIXED_BOUNDS, MIXED_MEANS, MIXED_Z


class TestInit:
    def test_zero_vector_single_block(self):
        state = init(WeightedSeries(np.zeros(5)))
        assert_array_equal(state.blocks.partition.boundaries, [0, 5])
        assert_array_equal(state.blocks.means, [0.0])
        assert state.provenance == "initial"

    def test_mixed_vector(self):
        state = init(WeightedSeries(MIXED_Z))
        assert_array_equal(state.blocks.partition.boundaries, MIXED_BOUNDS)
        assert_allclose(state.blocks.means, MIXED_MEANS, rtol=0, atol=1e-12)

    def test_two_singletons(self):
        state = init(WeightedSeries([1.0, 0.0]))
        assert_array_equal(state.blocks.partition.boundaries, [0, 1, 2])
        assert_array_equal(state.blocks.means, [1.0, 0.0])


class TestUpdateIncrease:
    def test_raise_inside_middle_block(self):
        state = update_increase(init(WeightedSeries(MIXED_Z)), 5, 1.0)
        assert_array_equal(state.blocks.partition.boundaries, [0, 3, 6, 7, 9])
        want = [2.0, 2.0, 2.0, 2 / 3, 2 / 3, 2 / 3, 0.5, 0.0, 0.0]
        assert_allclose(state.fit(), want, rtol=0, atol=1e-12)
        assert state.provenance == "abridged"

    def test_raise_pools_into_left_block(self):
        state = update_increase(init(WeightedSeries(MIXED_Z)), 4, 2.0)
        assert_array_equal(state.blocks.partition.boundaries, [0, 4, 7, 9])
        want = [2.0, 2.0, 2.0, 2.0, 1 / 6, 1 / 6, 1 / 6, 0.0, 0.0]
        assert_allclose(state.fit(), want, rtol=0, atol=1e-12)

    def test_pair_pools_to_single_block(self):
        state = update_increase(init(WeightedSeries([1.0, 0.0])), 2, 1.0)
        assert_array_equal(state.blocks.partition.boundaries, [0, 2])
        assert_allclose(state.fit(), minmax_fit(WeightedSeries([1.0, 1.0])), rtol=0, atol=1e-12)

    def test_weights_after_large_weight_are_not_cancelled(self):
        # 1e20 + 1 == 1e20 in float64, so differences of cumulative weights would give 0;
        # a remainder of 2 indices is pushed index by index, one of 19 by runs
        for m in (3, 20):
            series = WeightedSeries(np.zeros(m), [1e20] + [1.0] * (m - 1))
            state = update_increase(init(series), 1, 2.0)
            assert_array_equal(state.blocks.partition.boundaries, [0, 1, m])
            assert_array_equal(state.blocks.means, [2.0, 0.0])
            assert_array_equal(state.blocks.weights, [1e20, m - 1])

    def test_head_weight_after_large_weight_is_not_cancelled(self):
        series = WeightedSeries([1.0, 0.0, 0.0, 0.0], [1e20, 1.0, 1.0, 1.0])
        state = update_increase(init(series), 4, 0.5)
        assert_array_equal(state.blocks.partition.boundaries, [0, 1, 4])
        assert_array_equal(state.blocks.weights, [1e20, 3.0])
        assert_allclose(state.blocks.means, [1.0, 1 / 6], rtol=1e-15)

    def test_leaves_input_state_untouched(self):
        before = init(WeightedSeries(MIXED_Z))
        update_increase(before, 5, 1.0)
        assert_array_equal(before.z, MIXED_Z)
        assert_array_equal(before.blocks.partition.boundaries, MIXED_BOUNDS)

    def test_rejects_equal_and_smaller_values(self):
        state = init(WeightedSeries(MIXED_Z))
        with pytest.raises(ValueError, match="decrease not supported by abridged path"):
            update_increase(state, 5, -1.0)
        with pytest.raises(ValueError, match="decrease not supported by abridged path"):
            update_increase(state, 5, -2.0)

    def test_rejects_bad_positions_and_values(self):
        state = init(WeightedSeries(MIXED_Z))
        with pytest.raises(IndexError):
            update_increase(state, 0, 1.0)
        with pytest.raises(IndexError):
            update_increase(state, 10, 1.0)
        with pytest.raises(ValueError):
            update_increase(state, 5, np.inf)


class TestUpdateAny:
    def test_equal_value_is_noop(self):
        state = init(WeightedSeries(MIXED_Z))
        assert update_any(state, 2, 3.0) is state

    def test_increase_delegates(self):
        state = init(WeightedSeries(MIXED_Z))
        fast = update_any(state, 5, 1.0)
        direct = update_increase(state, 5, 1.0)
        assert_array_equal(fast.blocks.partition.boundaries, direct.blocks.partition.boundaries)
        assert_array_equal(fast.blocks.means, direct.blocks.means)

    def test_decrease_recomputes(self):
        state = update_any(init(WeightedSeries(MIXED_Z)), 2, 0.0)
        z = MIXED_Z.copy()
        z[1] = 0.0
        want = fit_modified(WeightedSeries(z))
        assert_array_equal(state.blocks.partition.boundaries, want.partition.boundaries)
        assert_allclose(state.blocks.means, want.means, rtol=0, atol=1e-12)
        assert state.provenance == "recomputed"

    def test_bad_position(self):
        with pytest.raises(IndexError):
            update_any(init(WeightedSeries(MIXED_Z)), 12, 1.0)


def _random_walk(seed, sequences, updates, max_m):
    """Yield (old_state, j, new_state) triples along random increase sequences."""
    rng = np.random.default_rng(seed)
    for _ in range(sequences):
        m = int(rng.integers(1, max_m + 1))
        w = rng.uniform(0.5, 3.0, size=m) if rng.integers(2) else np.ones(m)
        state = init(WeightedSeries(np.zeros(m), w))
        for _ in range(updates):
            j = int(rng.integers(1, m + 1))
            value = float(state.z[j - 1] + rng.uniform(0.01, 1.0))
            new_state = update_increase(state, j, value)
            yield state, j, new_state
            state = new_state


class TestSequenceProperties:
    def test_matches_batch_refit(self):
        for state, j, new_state in _random_walk(101, sequences=30, updates=50, max_m=25):
            batch = fit_standard(WeightedSeries(new_state.z, new_state.w))
            assert_array_equal(
                new_state.blocks.partition.boundaries, batch.partition.boundaries
            )
            assert_allclose(new_state.fit(), expand(batch), rtol=0, atol=1e-12)

    def test_update_order_properties(self):
        for state, j, new_state in _random_walk(102, sequences=30, updates=50, max_m=25):
            old_bounds = state.blocks.partition.boundaries
            s0 = int(np.searchsorted(old_bounds, j))
            touched_end = int(old_bounds[s0])

            old_fit = state.fit()
            new_fit = new_state.fit()
            # componentwise domination
            assert (new_fit >= old_fit).all()
            # everything strictly right of the touched block is reused bit for bit
            assert_array_equal(new_fit[touched_end:], old_fit[touched_end:])
            # boundaries left of the touched position only disappear, never appear
            new_bounds = new_state.blocks.partition.boundaries
            old_left = set(old_bounds[(old_bounds > 0) & (old_bounds < j)].tolist())
            new_left = set(new_bounds[(new_bounds > 0) & (new_bounds < j)].tolist())
            assert new_left <= old_left
            # no violator at the seam: block means stay strictly decreasing
            assert (np.diff(new_state.blocks.means) < 0).all()

    def test_states_validate_against_their_vectors(self):
        for _, _, new_state in _random_walk(103, sequences=10, updates=30, max_m=15):
            series = WeightedSeries(new_state.z, new_state.w)
            new_state.blocks.validate(series)
