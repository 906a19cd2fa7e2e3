import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from seqpava import BlockFit, WeightedSeries, expand, fit_modified, fit_standard, minmax_fit, pava
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
        # positions that are not integers are named before anything is read
        for j in (2.0, 2.5, np.float64(2.0), "2"):
            for update in (update_increase, update_any):
                with pytest.raises(TypeError, match=rf"^position {re.escape(repr(j))} is not an integer$"):
                    update(state, j, 9.0)
        assert_array_equal(state.z, MIXED_Z)
        assert_array_equal(state.blocks.partition.boundaries, MIXED_BOUNDS)


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
        assert state.provenance == "abridged"

    def test_bad_position(self):
        with pytest.raises(IndexError):
            update_any(init(WeightedSeries(MIXED_Z)), 12, 1.0)

    def test_integer_values_count_as_floats(self):
        state = init(WeightedSeries(MIXED_Z))
        raised, lowered = update_increase(state, 5, 1), update_any(state, 2, 0)
        assert_array_equal(raised.blocks.means, update_increase(state, 5, 1.0).blocks.means)
        assert_array_equal(lowered.blocks.means, update_any(state, 2, 0.0).blocks.means)
        assert update_any(lowered, 2, 0) is lowered

    def test_states_branch_independently(self):
        before = init(WeightedSeries(MIXED_Z))
        for j, value in ((5, 1.0), (2, 0.0), (9, -1.0)):
            after = update_any(before, j, value)
            want = fit_standard(WeightedSeries(after.z))
            assert_allclose(after.fit(), expand(want), rtol=0, atol=1e-12)
        assert_array_equal(before.z, MIXED_Z)
        assert_array_equal(before.engine.bounds, MIXED_BOUNDS)

    def test_updates_build_blocks_only_when_read(self, monkeypatch):
        snapshots = []
        snapshot = BlockFit.snapshot

        def counted(self):
            snapshots.append(self)
            return snapshot(self)

        monkeypatch.setattr(BlockFit, "snapshot", counted)
        rng = np.random.default_rng(7)
        z = rng.integers(-3, 4, size=30).astype(float)
        state = init(WeightedSeries(z))
        branch = state
        for step in range(50):
            j = int(rng.integers(1, z.size + 1))
            if step % 2:
                value = float(rng.integers(-3, 7))
                state = update_any(state, j, value)
            else:
                value = state.z[j - 1] + float(rng.integers(1, 4))
                state = update_increase(state, j, value)
            z[j - 1] = value
            if step == 10:
                branch = state
        assert snapshots == []
        blocks = state.blocks
        assert snapshots == [state.engine]
        fitted = state.fit()
        assert state.blocks is blocks
        assert snapshots == [state.engine]
        assert_allclose(fitted, expand(fit_standard(WeightedSeries(z))), rtol=0, atol=1e-12)
        want = fit_standard(WeightedSeries(branch.z))
        assert_array_equal(branch.blocks.partition.boundaries, want.partition.boundaries)
        assert_allclose(branch.fit(), expand(want), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "j, value, want",
        [
            # a decrease keeps the tail 1..3 pooled
            (1, 0.0, [1e308 / 3 * 2] * 3),
            # an increase keeps the head 1..2 pooled
            (2, 1.5e308, [1.25e308, 1.25e308, 1e308]),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_huge_values_stay_pooled_without_overflow(self, j, value, want):
        # the pooled part's weighted sum overflows although its mean is finite
        state = update_any(init(WeightedSeries([1e308] * 3)), j, value)
        assert_allclose(state.fit(), want, rtol=1e-15)


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


# init fits 4..17 to the rounded mean 8.9e-17 (true mean 0), so that block stays
# apart from block 18..20 of mean 0.0
ROUNDED_SEAM_Z = [1, 3, 1, 0, -2, 1, 1, 0, -3, -2, -2, 3, 3, -3, 0, 1, 3, -3, 3, 0]


@pytest.mark.parametrize("update", [update_increase, update_any])
def test_increase_pools_across_a_rounded_seam(update):
    state = init(WeightedSeries(ROUNDED_SEAM_Z))
    assert_array_equal(state.blocks.partition.boundaries, [0, 2, 3, 17, 20])
    new = update(state, 8, 2.0)
    # the rest of the touched block, 9..17, now has mean exactly 0.0, as 18..20 has
    assert_array_equal(new.blocks.partition.boundaries, [0, 2, 3, 8, 20])
    assert_allclose(new.fit(), minmax_fit(WeightedSeries(new.z)), rtol=0, atol=1e-12)


def _mixed_walk(seed, sequences, updates, max_m):
    """Yield (old_state, j, new_state) along random sequences of increases and decreases.

    Half-integer values make ties, plateaus and equal block means common.
    """
    rng = np.random.default_rng(seed)
    for _ in range(sequences):
        m = int(rng.integers(1, max_m + 1))
        w = rng.uniform(0.5, 3.0, size=m) if rng.integers(2) else np.ones(m)
        state = init(WeightedSeries(rng.integers(-6, 7, size=m) / 2.0, w))
        for _ in range(updates):
            j = int(rng.integers(1, m + 1))
            new_state = update_any(state, j, rng.integers(-6, 7) / 2.0)
            yield state, j, new_state
            state = new_state


class TestMixedSequences:
    def test_matches_oracle(self):
        for _, _, new in _mixed_walk(201, sequences=20, updates=15, max_m=30):
            want = minmax_fit(WeightedSeries(new.z, new.w))
            assert_allclose(new.fit(), want, rtol=0, atol=1e-12)
            assert (np.diff(new.blocks.means) < 0).all()

    def test_decreases_reuse_left_blocks(self):
        decreases = 0
        for old, j, new in _mixed_walk(202, sequences=40, updates=25, max_m=30):
            if new.z[j - 1] >= old.z[j - 1]:
                continue
            decreases += 1
            assert new.provenance == "abridged"
            old_bounds = old.blocks.partition.boundaries
            s0 = int(np.searchsorted(old_bounds, j))  # old block s0 covers j
            new_bounds = new.blocks.partition.boundaries
            # every block strictly left of the touched one is reused bit for bit
            assert_array_equal(new_bounds[:s0], old_bounds[:s0])
            assert_array_equal(new.blocks.means[: s0 - 1], old.blocks.means[: s0 - 1])
            assert_array_equal(new.blocks.weights[: s0 - 1], old.blocks.weights[: s0 - 1])
            # boundaries right of the touched position only disappear, never appear
            old_right = set(old_bounds[old_bounds >= j].tolist())
            assert set(new_bounds[new_bounds >= j].tolist()) <= old_right
            assert (new.fit() <= old.fit() + 1e-12).all()
        assert decreases > 300


_halves = st.integers(-6, 6).map(lambda k: k / 2.0)


def _drawn_series(data, max_m):
    m = data.draw(st.integers(1, max_m))
    z = data.draw(st.lists(_halves, min_size=m, max_size=m))
    w = data.draw(
        st.one_of(
            st.just([1.0] * m),
            st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m),
        )
    )
    return m, WeightedSeries(z, w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_set_matches_oracle(data):
    m, series = _drawn_series(data, 12)
    w = series.w
    fit = BlockFit(series)
    for j, value in data.draw(st.lists(st.tuples(st.integers(1, m), _halves), max_size=15)):
        fit.set(j, value)
        blocks = fit.snapshot()  # rejects means that do not decrease strictly
        want = minmax_fit(WeightedSeries(fit.z, w))
        assert_allclose(expand(blocks), want, rtol=0, atol=1e-12)


def _bits(values):
    """Values as the bits of their float64 form, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _lists(fit):
    return [_bits(x) for x in (fit.z, fit.bounds, fit.means, fit.weights)]


def _assert_holds(state, reference):
    """The state's z and fit are the reference engine's, bit for bit."""
    z = state.z
    assert not z.flags.writeable
    engine = state.engine
    assert _bits(z) == _bits(reference.z)
    assert _lists(engine) == _lists(reference)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_branching_states_keep_their_own_fits(data):
    # a random tree of states grown from random earlier states, read in random
    # order; each state's reference is its parent's engine copied, then set
    m, series = _drawn_series(data, 12)
    states, references = [init(series)], [BlockFit(series)]
    for _ in range(data.draw(st.integers(1, 20))):
        k = data.draw(st.integers(0, len(states) - 1))
        if data.draw(st.booleans()):  # read a state instead of updating it
            _assert_holds(states[k], references[k])
            continue
        j = data.draw(st.integers(1, m))
        old = references[k].z[j - 1]
        step = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.5]))
        if step > 0:
            state = update_increase(states[k], j, old + step)
        else:
            state = update_any(states[k], j, old + step)
        if step == 0.0:
            assert state is states[k]
            continue
        reference = references[k].copy()
        reference.set(j, old + step)
        states.append(state)
        references.append(reference)
    for k in data.draw(st.permutations(range(len(states)))):
        _assert_holds(states[k], references[k])
        blocks = states[k].blocks
        assert _bits(blocks.partition.boundaries) == _bits(references[k].bounds)
        assert _bits(blocks.means) == _bits(references[k].means)
        assert _bits(blocks.weights) == _bits(references[k].weights)
        want = minmax_fit(WeightedSeries(references[k].z, series.w))
        assert_allclose(states[k].fit(), want, rtol=0, atol=1e-12)


def _batch(data, fit, m):
    """Strictly increasing positions and new values that raise, lower or move z either way."""
    positions = sorted(data.draw(st.sets(st.integers(1, m), min_size=1, max_size=m)))
    direction = data.draw(st.sampled_from(["raise", "lower", "mixed"]))
    if direction == "mixed":
        values = [data.draw(_halves) for _ in positions]
    else:
        sign = 1.0 if direction == "raise" else -1.0
        values = [fit.z[j - 1] + sign * data.draw(_halves.filter(lambda d: d > 0)) for j in positions]
    return positions, values


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_engine_set_many_matches_oracle(data):
    m, series = _drawn_series(data, 30)
    w = series.w
    fit = BlockFit(series)
    for _ in range(data.draw(st.integers(1, 3))):
        positions, values = _batch(data, fit, m)
        old_values = fit.z[np.array(positions) - 1].copy()
        before = _lists(fit)
        report = fit.set_many(positions, values)
        assert_array_equal(fit.z[np.array(positions) - 1], values)
        blocks = fit.snapshot()  # rejects means that do not decrease strictly
        want = minmax_fit(WeightedSeries(fit.z, w))
        assert_allclose(expand(blocks), want, rtol=0, atol=1e-12)
        # the report names the old blocks s0.. that count new blocks replaced;
        # block s has its edge at bounds[s], its mean and weight at index s - 1
        s0, count, old_bounds, old_means, old_weights = report
        replaced = len(old_means)
        after = _lists(fit)
        for k, start, old in ((1, s0, old_bounds), (2, s0 - 1, old_means), (3, s0 - 1, old_weights)):
            assert after[k][:start] == before[k][:start]
            assert _bits(old) == before[k][start : start + replaced]
            assert after[k][start + count :] == before[k][start + replaced :]
        # restoring the report, and z, gives the old fit back bit for bit, and the
        # report that restore returns gives the new one
        fit.z[np.array(positions) - 1] = old_values
        inverse = fit.restore(report)
        assert _lists(fit) == before
        fit.z[np.array(positions) - 1] = values
        fit.restore(inverse)
        assert _lists(fit) == after


# 30 positions, so that a batch of 16 or more can be valid
LONG_Z = np.tile(MIXED_Z, 4)[:30]


def _outcome(update, *args):
    """The report of ``update(*args)``, or the type and message of what it raises."""
    try:
        return update(*args)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_engine_set_is_the_batch_of_one(data):
    m, series = _drawn_series(data, 20)
    fit = BlockFit(series)
    batch = fit.copy()
    bad_positions = [0, m + 1, 2.5, "3"]
    bad_values = [np.nan, np.inf, -np.inf, "3"]
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["new", "same", "bad position", "bad value"]))
        j = data.draw(st.integers(1, m))
        # True and numpy integers are positions too
        position = data.draw(st.sampled_from([j, np.int64(j)] + [True] * (j == 1)))
        value = data.draw(_halves)
        if kind == "same":
            value = fit.z.item(j - 1)
        elif kind == "bad position":
            position = data.draw(st.sampled_from(bad_positions))
        elif kind == "bad value":
            value = data.draw(st.sampled_from(bad_values))
        before = _lists(fit)
        got = _outcome(fit.set, position, value)
        assert got == _outcome(batch.set_many, (position,), (value,))
        assert _lists(fit) == _lists(batch)
        if kind.startswith("bad"):
            assert isinstance(got[0], type) and _lists(fit) == before
        elif kind == "same":
            assert got == (1, 0, [], [], []) and _lists(fit) == before


def test_engine_set_many_pre_pools_nothing_on_a_mixed_batch():
    # one block of mean 3; raising z3 and lowering z4 splits it, and pooling
    # the head 1..3 as one unit would give [4/3, 4/3, 4/3, -10]
    fit = BlockFit(WeightedSeries([0.0, 3.0, 0.0, 9.0]))
    assert fit.bounds == [0, 4]
    fit.set_many((3, 4), (1.0, -10.0))
    assert_array_equal(fit.z, [0.0, 3.0, 1.0, -10.0])
    assert_allclose(expand(fit.snapshot()), [1.5, 1.5, 1.0, -10.0], rtol=0, atol=1e-12)


def test_engine_set_pushes_a_lone_position_as_its_own_value():
    # a one-position block gets z itself as its mean, where a weighted mean
    # 0.1 * 3 / 3 would give 0.10000000000000002
    fit = BlockFit(WeightedSeries([5.0, 0.0], [1.0, 3.0]))
    fit.set(2, 0.1)
    assert fit.means == [5.0, 0.1]
    fit.set(2, -0.1)
    assert fit.means == [5.0, -0.1]


def test_engine_set_many_pools_interior_runs_of_huge_values_and_weights(pushed):
    # pairs (v, v + step/2) of non-decreasing values near the float limit:
    # weights of 1e300 overflow every w * z, so the pairs between the two
    # changes enter at means from _stretch's scaled fallback
    v = np.linspace(1.6, -1.6, 20) * 1e308
    z = np.ravel(np.column_stack((v, v + 0.5 * (v[0] - v[1]))))
    w = np.tile([1e300, 3e300], 20)
    fit = BlockFit(WeightedSeries(z, w))
    assert len(fit.means) == 20
    pushed.clear()
    z[[0, -1]] += 1e307, -1e307
    fit.set_many([1, 40], z[[0, -1]])
    # position 1, position 2 alone, 18 pairs, position 39 alone, position 40
    assert pushed == [1, 20, 1]
    want = fit_standard(WeightedSeries(z, w))
    assert_array_equal(fit.bounds, want.partition.boundaries)
    assert_allclose(fit.means, want.means, rtol=1e-15)


def test_engine_set_many_enters_a_constant_interior_run_at_its_value(pushed):
    # 0.7 * 3 summed and divided by the weight gives 0.6999999999999998, so a
    # constant run between the changes must enter at its value, not its mean
    z = np.r_[np.linspace(9.0, 5.0, 8), [0.7] * 3, np.linspace(-5.0, -9.0, 8)]
    fit = BlockFit(WeightedSeries(z, np.full(z.size, 3.0)))
    pushed.clear()
    fit.set_many([1, 19], [10.0, -10.0])
    assert pushed == [1, 15, 1]  # 17 positions between the changes, the run one unit
    assert fit.means[8:10] == [0.7, -5.0] and fit.weights[8] == 9.0


def test_engine_set_pools_the_head_of_a_raise_and_the_tail_of_a_lowering(pushed):
    # z rises along 1..20, so all of it is one block of the fit
    fit = BlockFit(WeightedSeries(np.arange(20.0)))
    pushed.clear()
    fit.set(15, 100.0)  # positions 1..15 as one unit, then 16..20 one by one
    assert pushed == [1, 5]
    pushed.clear()
    fit.set(5, -100.0)  # positions 1..4 one by one, then 5..20 as one unit
    assert pushed == [4, 1]
    assert_allclose(expand(fit.snapshot()), minmax_fit(WeightedSeries(fit.z)), rtol=0, atol=1e-12)


def test_engine_updates_keep_python_integer_edges():
    # a raise at 5 (or 1) pools the head 1..5 into one unit whose edge is the
    # position; a batch that ends at 30 pushes the runs before it up to edge 29
    series = WeightedSeries(np.arange(40.0, 0.0, -1.0))
    for position in (np.int64(5), True):
        fit, batch = BlockFit(series), BlockFit(series)
        report = fit.set(position, 100.0)
        batch.set_many((position,), (100.0,))
        batch.set_many((position, np.int64(30)), (200.0, -100.0))
        state = update_increase(init(series), position, 100.0)
        edges = fit.bounds + report[2] + fit.restore(report)[2] + batch.bounds + state.engine.bounds
        assert all(type(edge) is int for edge in edges), edges


def test_engine_set_many_of_nothing_changes_nothing():
    fit = BlockFit(WeightedSeries(MIXED_Z))
    assert fit.set_many([], []) == (1, 0, [], [], [])
    assert fit.set_many(np.array([], dtype=np.int64), np.array([])) == (1, 0, [], [], [])
    assert_array_equal(fit.z, MIXED_Z)
    assert_array_equal(fit.bounds, MIXED_BOUNDS)


def test_engine_set_many_drops_positions_whose_value_does_not_change():
    # rounding keeps apart two blocks of means 0.25 and 0.24999999999999997;
    # writing back a value already there must not pool them
    fit = BlockFit(WeightedSeries([-1.0, 1.5, -1.0, 0.0, 1.5, 0.5]))
    assert fit.means == [0.25, 0.24999999999999997]
    before = _lists(fit)
    assert fit.set(5, 1.5) == (1, 0, [], [], [])
    assert fit.set_many([1, 5], [-1.0, 1.5]) == (1, 0, [], [], [])
    assert _lists(fit) == before
    # an unchanged position beside a changed one reports what the change alone does
    alone = fit.copy()
    assert fit.set_many([1, 6], [-1.0, 0.0]) == alone.set_many([6], [0.0])
    assert _lists(fit) == _lists(alone) != before
    # the same in a batch checked in bulk
    fit = BlockFit(WeightedSeries(LONG_Z))
    before = _lists(fit)
    assert fit.set_many(np.arange(1, 31), LONG_Z.copy()) == (1, 0, [], [], [])
    assert _lists(fit) == before
    alone = fit.copy()
    values = LONG_Z.copy()
    values[[3, 20]] = 7.0, -7.0
    assert fit.set_many(np.arange(1, 31), values) == alone.set_many([4, 21], [7.0, -7.0])
    assert _lists(fit) == _lists(alone) != before


def test_engine_set_many_takes_numpy_batches(monkeypatch):
    fit = BlockFit(WeightedSeries(MIXED_Z))
    fit.set_many(np.array([2, 5, 9]), np.array([0.0, 4.0, -1.0]))
    want = fit_standard(WeightedSeries(fit.z))
    assert_array_equal(fit.bounds, want.partition.boundaries)
    assert_allclose(fit.means, want.means, rtol=0, atol=1e-12)
    # a short batch and one checked in bulk: numpy positions do what a list
    # does, where True is 1, and leave Python integers in the fit
    for m in (9, 30):
        values = np.linspace(9.0, 4.0, m)
        fit = BlockFit(WeightedSeries(LONG_Z[:m]))
        batch = fit.copy()
        report = fit.set_many([True] + list(range(2, m + 1)), values.tolist())
        assert report == batch.set_many(np.arange(1, m + 1, dtype=np.int32), values)
        assert _lists(fit) == _lists(batch) and len(batch.means) == m
        assert all(type(edge) is int for edge in batch.bounds)
    # batches numpy cannot type at once as integer positions and float values
    # (True, numpy integers among Python ones, Python integer values) are
    # checked entry by entry and then converted: they do what their twins,
    # int64 or uint64 positions with float64 values, do without that check
    refuse, checked = pava._refuse, []
    monkeypatch.setattr(pava, "_refuse", lambda *args: checked.append(len(args[0])) or refuse(*args))
    for size in (2, 15, 16):
        head, tail = list(range(1, size + 1)), list(range(31 - size, 31))
        values = [(-1) ** j * (j - 5) for j in head]
        batches = [
            ([True] + head[1:], values, np.int64),
            ([np.int32(j) if j % 2 else j for j in head], values, np.int64),
            ([np.uint64(j) if j % 2 else np.int64(j) for j in tail], [v / 4 for v in values], np.uint64),
        ]
        for positions, new, kind in batches:
            fit = BlockFit(WeightedSeries(LONG_Z))
            twin = fit.copy()
            report = fit.set_many(positions, new)
            assert report == twin.set_many(np.array(positions, dtype=kind), np.array(new, dtype=float))
            assert _lists(fit) == _lists(twin) != _lists(BlockFit(WeightedSeries(LONG_Z)))
            assert all(type(edge) is int for edge in fit.bounds + report[2])
    assert checked == [2, 2, 2, 15, 15, 15, 16, 16, 16]
    # a batch of one is a call of set, which checks a valid position at
    # either end without the loop
    set_one, ones = BlockFit.set, []
    monkeypatch.setattr(BlockFit, "set", lambda fit, j, value: ones.append(j) or set_one(fit, j, value))
    fit = BlockFit(WeightedSeries(LONG_Z))
    fit.set_many(np.array([30]), np.array([-4.0]))
    fit.set(1, 9.0)
    fit.set(np.int64(30), 4.0)
    assert ones == [30, 1, 30] and checked == [2, 2, 2, 15, 15, 15, 16, 16, 16]


_ZEROS = [0.0] * 16


@pytest.mark.parametrize(
    "positions, values, error, message",
    [
        ((10,), (1.0,), IndexError, r"position 10 is outside 1\.\.9"),
        ((0,), (1.0,), IndexError, r"position 0 is outside 1\.\.9"),
        ((2.5,), (9.0,), TypeError, r"position 2\.5 is not an integer"),
        ((1, "3"), (1.0, 1.0), TypeError, r"position '3' is not an integer"),
        ((1, 10), (5.0, 1.0), IndexError, r"position 10 is outside 1\.\.9"),
        ((2, 2), (5.0, 1.0), ValueError, r"increase strictly, got 2 after 2"),
        ((5, 3), (5.0, 1.0), ValueError, r"increase strictly, got 3 after 5"),
        ((1, 2), (5.0, np.nan), ValueError, r"value at position 2 must be finite"),
        ((1, 2), (5.0,), ValueError, r"2 positions but 1 values"),
        # batches of two or more, which numpy checks in bulk first: the
        # error still names the first bad entry after good ones
        (np.array([1, 10]), np.zeros(2), IndexError, r"position 10 is outside 1\.\.9"),
        (np.array([1.0, 2.0]), np.zeros(2), TypeError, r"position np\.float64\(1\.0\) is not"),
        (np.array([[1, 2]]), np.zeros((1, 2)), TypeError, r"position array\(\[1, 2\]\) is not"),
        (np.arange(1, 17), np.zeros(16), IndexError, r"position 10 is outside 1\.\.9"),
        (list(range(1, 17)), _ZEROS, IndexError, r"position 10 is outside 1\.\.9"),
        (np.arange(0, 16), np.zeros(16), IndexError, r"position 0 is outside 1\.\.9"),
        (np.arange(1, 17), np.r_[0.0, 0.0, 0.0, np.nan, np.zeros(12)], ValueError, r"position 4 must be finite, got nan"),
        (np.arange(1, 17), np.r_[0.0, -np.inf, np.zeros(14)], ValueError, r"position 2 must be finite, got -inf"),
        (np.arange(1, 17), [0.0, 0.0, "3"] + _ZEROS[3:], TypeError, r"must be real number, not str"),
        (np.arange(1, 17), np.zeros((16, 2)), TypeError, r"only 0-dimensional arrays can be"),
        (np.r_[1, 2, 3, 3, np.arange(4, 16)], np.zeros(16), ValueError, r"increase strictly, got 3 after 3"),
        (np.r_[1:4, 9:0:-1, 1:5].astype(np.uint64), np.zeros(16), ValueError, r"strictly, got 8 after 9"),
        ([True, 1] + list(range(2, 16)), _ZEROS, ValueError, r"increase strictly, got 1 after True"),
        ([1, 2, 2.5] + list(range(3, 16)), _ZEROS, TypeError, r"position 2\.5 is not an integer"),
        ([1, 2, "3"] + list(range(4, 17)), _ZEROS, TypeError, r"position '3' is not an integer"),
        (np.arange(1.0, 17.0), np.zeros(16), TypeError, r"position np\.float64\(1\.0\) is not"),
        (np.ones(16, dtype=bool), np.zeros(16), TypeError, r"position np\.True_ is not an integer"),
        (np.arange(1, 17), np.zeros(15), ValueError, r"16 positions but 15 values"),
        # batches of every length reach the loop when numpy's check refuses them
        (np.array([0, 2]), np.zeros(2), IndexError, r"position 0 is outside 1\.\.9"),
        (np.array([[1, 2], [3, 4]]), np.zeros((2, 2)), TypeError, r"position array\(\[1, 2\]\) is not"),
        (np.array([1, 2]), np.zeros((2, 2)), TypeError, r"only 0-dimensional arrays can be"),
    ],
)
def test_engine_set_many_names_bad_input_and_changes_nothing(positions, values, error, message):
    fit = BlockFit(WeightedSeries(MIXED_Z))
    bounds, means, weights = fit.bounds[:], fit.means[:], fit.weights[:]
    with pytest.raises(error, match=message):
        fit.set_many(positions, values)
    assert_array_equal(fit.z, MIXED_Z)
    assert (fit.bounds, fit.means, fit.weights) == (bounds, means, weights)


def test_engine_set_rejects_bad_positions_and_values():
    fit = BlockFit(WeightedSeries(MIXED_Z))
    for j in (0, -1, MIXED_Z.size + 1):
        with pytest.raises(IndexError, match=rf"position {j} is outside 1\.\.9"):
            fit.set(j, 1.0)
    with pytest.raises(TypeError, match=r"position 2\.5 is not an integer"):
        fit.set(2.5, 9.0)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit.set(3, value)
    assert_array_equal(fit.z, MIXED_Z)
    assert_array_equal(fit.bounds, MIXED_BOUNDS)
    assert_allclose(fit.means, MIXED_MEANS, rtol=0, atol=1e-12)


def test_engine_takes_only_a_validated_series():
    with pytest.raises(TypeError):
        BlockFit(MIXED_Z, np.ones(MIXED_Z.size))
    with pytest.raises(TypeError, match="WeightedSeries"):
        BlockFit(MIXED_Z)
