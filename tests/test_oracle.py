import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqpava import WeightedSeries, check_fit, expand, fit_standard, minmax_fit

from conftest import MIXED_FIT, MIXED_Z, random_integer_series


class TestMinmaxFit:
    def test_mixed_vector(self):
        assert_allclose(minmax_fit(WeightedSeries(MIXED_Z)), MIXED_FIT, rtol=0, atol=1e-12)

    def test_decreasing_input_is_its_own_fit(self):
        s = WeightedSeries([4.0, 2.0, 0.0], [3.0, 0.5, 2.0])
        assert_array_equal(minmax_fit(s), [4.0, 2.0, 0.0])

    def test_weighted_pair(self):
        s = WeightedSeries([0.0, 1.0], [2.0, 1.0])
        fit = minmax_fit(s)
        assert_allclose(fit, [1.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)
        assert_allclose(expand(fit_standard(s)), fit, rtol=0, atol=1e-15)

    def test_single_element(self):
        assert_array_equal(minmax_fit(WeightedSeries([5.0])), [5.0])


class TestCheckFit:
    def test_valid_mixed_fit(self):
        assert check_fit(MIXED_FIT, WeightedSeries(MIXED_Z)).valid

    def test_valid_pooled_pair(self):
        result = check_fit([1.0, 1.0], WeightedSeries([0.0, 2.0]))
        assert result.valid and bool(result)

    def test_flags_increasing_fit_first(self):
        result = check_fit([0.0, 2.0], WeightedSeries([0.0, 2.0]))
        assert not result.valid
        assert "increases" in result.reason

    def test_flags_wrong_level(self):
        result = check_fit([1.5, 1.5], WeightedSeries([0.0, 2.0]))
        assert not result.valid

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_fit([1.0], WeightedSeries([0.0, 2.0]))

    def test_rejects_perturbed_block_means(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = random_integer_series(rng)
            blocks = fit_standard(s)
            fit = expand(blocks)
            for b, (lo, hi) in enumerate(blocks.blocks()):
                for delta in (0.5, -0.5):
                    tampered = fit.copy()
                    tampered[lo - 1 : hi] += delta
                    assert not check_fit(tampered, s).valid, (s.z, s.w, b, delta)


class TestOracleEquivalence:
    def test_exhaustive_binary_vectors(self):
        # every {0,1}-valued vector up to length 7 with unit weights
        for m in range(1, 8):
            for bits in itertools.product((0.0, 1.0), repeat=m):
                s = WeightedSeries(np.array(bits))
                fit = expand(fit_standard(s))
                assert_allclose(fit, minmax_fit(s), rtol=0, atol=1e-9)
                assert check_fit(fit, s).valid

    def test_exhaustive_ternary_vectors(self):
        for m in range(1, 7):
            for values in itertools.product((-1.0, 0.0, 1.0), repeat=m):
                s = WeightedSeries(np.array(values))
                assert_allclose(expand(fit_standard(s)), minmax_fit(s), rtol=0, atol=1e-9)

    def test_random_weighted_instances(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            s = random_integer_series(rng)
            fit = minmax_fit(s)
            assert_allclose(expand(fit_standard(s)), fit, rtol=0, atol=1e-9)
            assert check_fit(fit, s).valid
