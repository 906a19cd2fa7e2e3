import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqpava import (
    BlockFit,
    DistributionFamilyEstimate,
    ExperimentConfig,
    ObservationSet,
    WeightedSeries,
    check_fit,
    fit_family,
    generate_dataset,
    group,
)

VARIANTS = ("standard", "modified", "abridged")


class TestGroup:
    def test_counts_multiplicities(self):
        obs = group([(2.0, 5.0), (1.0, 7.0), (2.0, 3.0)])
        assert_array_equal(obs.covariates, [1.0, 2.0])
        assert_array_equal(obs.weights, [1.0, 2.0])
        assert_array_equal(obs.group_index, [1, 0, 1])
        assert obs.n == 3 and obs.m == 2

    def test_distinct_covariates(self):
        obs = group([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        assert_array_equal(obs.weights, [1.0, 1.0, 1.0, 1.0])

    def test_single_group(self):
        obs = group([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
        assert obs.m == 1
        assert_array_equal(obs.weights, [3.0])

    @pytest.mark.parametrize("pairs", [[], [(1.0, np.nan)], [(np.inf, 1.0)], [(1.0, 2.0, 3.0)]])
    def test_rejects_bad_input(self, pairs):
        with pytest.raises(ValueError):
            group(pairs)


class TestObservationSet:
    @staticmethod
    def build(weights, group_index, x=(1.0, 2.0)):
        return ObservationSet(
            x=np.array(x),
            y=np.zeros(len(x)),
            covariates=np.array([1.0, 2.0]),
            weights=np.array(weights),
            group_index=np.array(group_index),
        )

    def test_accepts_group_multiplicities(self):
        obs = self.build([1.0, 2.0], [0, 1, 1], x=(1.0, 2.0, 2.0))
        assert obs.n == 3 and obs.m == 2

    def test_rejects_weights_that_are_not_multiplicities(self):
        # the weights sum to n, but fit_family would give CDF entries of 2.0
        with pytest.raises(ValueError, match="number of observations in each group"):
            self.build([0.5, 1.5], [0, 1])

    def test_rejects_negative_group_index(self):
        # index -1 wraps around to the covariate 2.0, which x matches
        with pytest.raises(ValueError, match="group index must lie in 0..1"):
            self.build([1.0, 2.0], [0, -1, 1], x=(1.0, 2.0, 2.0))

    def test_rejects_group_index_beyond_covariates(self):
        with pytest.raises(ValueError, match="group index must lie in 0..1"):
            self.build([1.0, 1.0], [0, 2])

    def test_rejects_non_integer_group_index(self):
        with pytest.raises(ValueError, match="integers"):
            self.build([1.0, 1.0], [0.0, 1.0])

    def test_accepts_list_fields(self):
        obs = ObservationSet(
            x=[1.0, 2.0], y=[0.0, 1.0], covariates=[1.0, 2.0], weights=[1.0, 1.0], group_index=[0, 1]
        )
        assert obs.n == 2 and obs.m == 2
        assert isinstance(obs.x, np.ndarray) and obs.group_index.dtype.kind == "i"
        want = fit_family(group([(1.0, 0.0), (2.0, 1.0)]))
        assert_array_equal(fit_family(obs).cdf, want.cdf)


class TestFitFamily:
    def test_single_pair(self):
        est = fit_family(group([(3.0, 5.0)]))
        assert est.cdf.shape == (1, 1)
        assert est.cdf[0, 0] == 1.0
        assert_array_equal(est.thresholds, [5.0])

    def test_two_pairs_hand_computed(self):
        # z at threshold 0 is (1, 0), fit (1, 0); at threshold 1 it is (1, 1)
        est = fit_family(group([(1.0, 0.0), (2.0, 1.0)]))
        assert_array_equal(est.thresholds, [0.0, 1.0])
        assert_array_equal(est.cdf, [[1.0, 1.0], [0.0, 1.0]])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            fit_family(group([(1.0, 0.0)]), "fastest")

    @pytest.mark.parametrize("n", [50, 200])
    def test_variants_agree_on_gamma_data(self, n):
        cfg = ExperimentConfig(n=n, replications=1, seed=9)
        for r in range(6):
            obs = group(generate_dataset(cfg, r))
            estimates = [fit_family(obs, v) for v in VARIANTS]
            for est in estimates:
                est.validate()
                assert_array_equal(est.thresholds, estimates[0].thresholds)
                gap = np.max(np.abs(est.cdf - estimates[0].cdf))
                assert gap <= 1e-12

    def test_gamma_rows_never_fall_and_variants_bit_equal(self):
        # at this seed incrementally pooled means once made a row fall by one ulp
        obs = group(generate_dataset(ExperimentConfig(n=2000, replications=1, seed=3), 0))
        estimates = [fit_family(obs, v) for v in VARIANTS]
        estimates[0].validate()
        for est in estimates[1:]:
            assert_array_equal(est.cdf, estimates[0].cdf)

    def test_columns_pass_check_fit(self):
        cfg = ExperimentConfig(n=60, replications=1, seed=10)
        obs = group(generate_dataset(cfg, 0))
        est = fit_family(obs, "abridged")
        order = np.lexsort((obs.group_index, obs.y))
        groups_sorted = obs.group_index[order]
        y_sorted = obs.y[order]
        counts = np.zeros(obs.m)
        col = 0
        for t in range(obs.n):
            counts[groups_sorted[t]] += 1
            if t == obs.n - 1 or y_sorted[t + 1] != y_sorted[t]:
                series = WeightedSeries(counts / obs.weights, obs.weights)
                result = check_fit(est.cdf[:, col], series)
                assert result.valid, (col, result.reason)
                col += 1
        assert col == est.k

    def test_tied_responses_collapse_to_one_column(self):
        est = fit_family(group([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]))
        assert est.k == 1
        assert_array_equal(est.cdf, [[1.0], [1.0], [1.0]])

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 5, size=40).astype(float)
        y = rng.integers(0, 6, size=40).astype(float)  # plenty of ties
        pairs = np.column_stack((x, y))
        base = fit_family(group(pairs), "abridged")
        for _ in range(5):
            perm = rng.permutation(40)
            shuffled = fit_family(group(pairs[perm]), "abridged")
            assert_array_equal(shuffled.thresholds, base.thresholds)
            assert_array_equal(shuffled.cdf, base.cdf)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_work_is_one_update_per_cell_or_one_refit_per_threshold(self, monkeypatch, variant):
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, 6, size=(300, 2)).astype(float)  # 36 cells, 6 thresholds
        obs = group(pairs)
        calls = {"set": 0, "set_many": 0, "refit": 0}

        def counted(name):
            method = getattr(BlockFit, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(BlockFit, name, counted(name))
        est = fit_family(obs, variant)
        cells = len(np.unique(pairs, axis=0))
        assert cells < obs.n
        # the engine's construction fits the zero vector once; the abridged
        # sweep then updates it once per threshold, with all of its cells
        if variant == "abridged":
            assert calls == {"set": 0, "set_many": est.k, "refit": 1}
        else:
            assert calls == {"set": 0, "set_many": 0, "refit": 1 + est.k}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_threshold_keeps_the_sign_of_the_first_zero(self, variant):
        # -0.0 == 0.0, so mixed zeros form one threshold; its sign is that of
        # the first zero in (group, input row) order, as a stable sort by
        # response and then group puts them
        rng = np.random.default_rng(17)
        signs = set()
        for _ in range(300):
            n = int(rng.integers(1, 30))
            x = rng.integers(0, 4, n).astype(float)
            y = rng.choice([-0.0, 0.0, 1.0, -2.0], n)
            obs = group(np.column_stack((x, y)))
            order = np.lexsort((obs.group_index, obs.y))
            y_sorted = obs.y[order]
            want = y_sorted[np.append(True, y_sorted[1:] != y_sorted[:-1])]
            got = fit_family(obs, variant).thresholds
            assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            signs.update(np.signbit(want[want == 0.0]).tolist())
        assert signs == {False, True}

    def test_single_covariate_gives_ecdf(self):
        y = np.array([3.0, 1.0, 2.0, 2.0])
        est = fit_family(group([(0.0, v) for v in y]))
        assert_array_equal(est.thresholds, [1.0, 2.0, 3.0])
        assert_allclose(est.cdf, [[0.25, 0.75, 1.0]], rtol=0, atol=0)


class TestEstimateQueries:
    @pytest.fixture
    def small_estimate(self):
        return DistributionFamilyEstimate(
            np.array([1.0]), np.array([1.0, 2.0, 3.0, 4.0]), np.array([[0.25, 0.5, 0.75, 1.0]])
        )

    def test_cdf_below_all_thresholds(self, small_estimate):
        assert small_estimate.cdf_at(1, 0.5) == 0.0

    def test_cdf_at_and_between_thresholds(self, small_estimate):
        assert small_estimate.cdf_at(1, 2.0) == 0.5
        assert small_estimate.cdf_at(1, 2.9) == 0.5

    def test_cdf_above_all_thresholds(self, small_estimate):
        assert small_estimate.cdf_at(1, 100.0) == 1.0

    def test_quantile_inverse_lookup(self, small_estimate):
        assert small_estimate.quantile(1, 0.5) == 2.0
        assert small_estimate.quantile(1, 0.51) == 3.0
        assert small_estimate.quantile(1, 1.0) == 4.0

    def test_quantile_of_single_observation(self):
        est = fit_family(group([(3.0, 5.0)]))
        for beta in (0.01, 0.5, 1.0):
            assert est.quantile(1, beta) == 5.0

    def test_quantile_rejects_bad_beta(self, small_estimate):
        for beta in (0.0, -1.0, 1.5, np.nan):
            with pytest.raises(ValueError) as single:
                small_estimate.quantile(1, beta)
            with pytest.raises(ValueError) as curves:
                small_estimate.quantiles([0.5, beta])
            assert str(curves.value) == str(single.value)

    def test_quantile_raises_when_row_never_reaches_level(self):
        est = DistributionFamilyEstimate([1.0], [0.0, 1.0], [[0.2, 0.5]])
        message = "covariate index 1 never reaches beta = 0.9"
        with pytest.raises(ValueError, match=message):
            est.quantile(1, 0.9)
        with pytest.raises(ValueError, match=message):
            est.quantiles([0.5, 0.9])
        assert est.quantile(1, 0.5) == 1.0
        est = DistributionFamilyEstimate([1.0, 2.0], [0.0, 1.0], [[0.5, 1.0], [0.2, 0.5]])
        with pytest.raises(ValueError, match="covariate index 2 never reaches beta = 0.9"):
            est.quantiles([0.9])

    def test_cdf_at_rejects_nan(self, small_estimate):
        with pytest.raises(ValueError, match="NaN"):
            small_estimate.cdf_at(1, np.nan)

    def test_index_errors(self, small_estimate):
        with pytest.raises(IndexError):
            small_estimate.cdf_at(0, 1.0)
        with pytest.raises(IndexError):
            small_estimate.quantile(2, 0.5)

    def test_quantile_cdf_consistency(self):
        cfg = ExperimentConfig(n=60, replications=1, seed=12)
        est = fit_family(group(generate_dataset(cfg, 0)))
        betas = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        for j in range(1, est.m + 1):
            quantiles = [est.quantile(j, beta) for beta in betas]
            assert quantiles == sorted(quantiles)
            for beta, q in zip(betas, quantiles):
                assert est.cdf_at(j, q) >= beta


def _tied_pairs(rng):
    """Many observations on few integer covariates, responses on 20 grades."""
    x = rng.integers(1, 41, size=3000)
    return np.column_stack((x, rng.binomial(19, x / 41.0)))


def _graded_pairs(rng):
    """Distinct covariates, responses on 20 grades."""
    x = np.sort(rng.uniform(0.0, 1.0, size=400))
    return np.column_stack((x, rng.binomial(19, 0.05 + 0.9 * x)))


QUANTILE_INPUTS = {
    **{
        f"gamma{s}": generate_dataset(ExperimentConfig(n=300, replications=1, seed=s), 0)
        for s in range(10)
    },
    "tied": _tied_pairs(np.random.default_rng(1)),
    "graded": _graded_pairs(np.random.default_rng(2)),
}


@pytest.mark.parametrize("pairs", QUANTILE_INPUTS.values(), ids=QUANTILE_INPUTS.keys())
def test_quantiles_equal_quantile_cell_by_cell(pairs):
    est = fit_family(group(pairs))
    betas = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    expected = [[est.quantile(j, beta) for beta in betas] for j in range(1, est.m + 1)]
    # the table fit_family builds is F-ordered; the queries must not depend on that
    for cdf in (est.cdf, np.ascontiguousarray(est.cdf)):
        curves = DistributionFamilyEstimate(est.covariates, est.thresholds, cdf).quantiles(betas)
        assert curves.shape == (est.m, len(betas))
        assert curves.tolist() == expected
        assert _bits(curves) == _bits(_first_reaching_by_argmax(est, betas))


def _first_reaching_by_argmax(est, betas):
    """Quantile curves by the first threshold of each row that reaches each level."""
    return np.column_stack([est.thresholds[(est.cdf >= beta).argmax(axis=1)] for beta in betas])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _graded_sweep_pairs(seed, n=4000):
    """Distinct covariates and 20 response grades of a gamma response, as in the benchmark."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, n)
    t = x - 5.0
    latent = rng.gamma(np.sqrt(x), 1.0 + t / np.sqrt(2.0 + t * t))
    return np.column_stack((x, 1.0 + np.searchsorted(np.linspace(0.5, 9.5, 19), latent)))


def _tied_sweep_pairs(seed, n=20_000, groups=500):
    """The same response on a grid of integer covariates, about 40 observations each."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, groups + 1, n).astype(float)
    u = x * (10.0 / groups)
    t = u - 5.0
    latent = rng.gamma(np.sqrt(u), 1.0 + t / np.sqrt(2.0 + t * t))
    return np.column_stack((x, 1.0 + np.searchsorted(np.linspace(0.5, 9.5, 19), latent)))


def test_sweep_pushes_a_pinned_number_of_units(pushed):
    # A noise-free measure of the abridged sweep's pooling work: every unit it
    # pushes enters through _absorb. By constant runs alone the sweep pushed
    # 12,358 units and 5,130; non-decreasing runs between each batch's first
    # and last change bring that down.
    for pairs, units in ((_graded_sweep_pairs(7), 6307), (_tied_sweep_pairs(7), 2695)):
        obs = group(pairs)
        pushed.clear()
        est = fit_family(obs, "abridged")
        assert est.k == 20
        assert sum(pushed) == units
        assert_array_equal(est.cdf, fit_family(obs, "standard").cdf)


@pytest.mark.benchmark
def test_quantiles_at_scale_equal_the_argmax_reference():
    betas = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1e-9, 0.5 + 1e-16)
    for n, seeds in ((2000, range(40)), (4000, (3,))):
        for seed in seeds:
            pairs = generate_dataset(ExperimentConfig(n=n, replications=1, seed=seed), 0)
            est = fit_family(group(pairs))
            assert _bits(est.quantiles(betas)) == _bits(_first_reaching_by_argmax(est, betas))


class TestEstimateValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DistributionFamilyEstimate(np.array([1.0]), np.array([1.0, 2.0]), np.eye(3))

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            DistributionFamilyEstimate(
                np.array([1.0]), np.array([2.0, 1.0]), np.array([[0.5, 1.0]])
            )

    @pytest.mark.parametrize(
        "covariates, thresholds, message",
        [
            ([1.0, np.inf], [0.0, 1.0], "finite"),
            ([np.nan, 2.0], [0.0, 1.0], "finite"),
            ([1.0, 2.0], [0.0, np.inf], "finite"),
            ([1.0, 2.0], [-np.inf, 1.0], "finite"),
            ([1.0, 2.0], [np.nan], "finite"),
            ([2.0, 1.0], [0.0, 1.0], "covariates must be strictly increasing"),
            ([1.0, 1.0], [0.0, 1.0], "covariates must be strictly increasing"),
        ],
    )
    def test_rejects_bad_grid(self, covariates, thresholds, message):
        cdf = np.ones((len(covariates), len(thresholds)))
        with pytest.raises(ValueError, match=message):
            DistributionFamilyEstimate(np.array(covariates), np.array(thresholds), cdf)

    @pytest.mark.parametrize(
        "cdf",
        [
            [[0.5, 0.9], [0.4, 1.0]],  # last column not 1
            [[1.2, 1.0], [0.4, 1.0]],  # out of range
            [[0.5, 1.0], [0.6, 1.0]],  # column increasing in the covariate
            [[1.0, 0.5], [0.4, 0.4]],  # row decreasing in the threshold
            [[np.nan, 1.0], [0.5, 1.0]],  # NaN, which every comparison lets through
        ],
    )
    def test_validate_rejects_bad_matrix(self, cdf):
        est = DistributionFamilyEstimate(
            np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array(cdf, dtype=float)
        )
        with pytest.raises(ValueError):
            est.validate()
